package repro.core

import org.apache.spark.sql.{DataFrame, Observation, SparkSession}
import org.apache.spark.sql.functions._
import repro.graph.Graph
import repro.uncertain.{Rnd, UncertainGraph, WorldSampler}

/** Algorithm 1 — sampling-based top-k MPDS estimation, as a Spark dataflow:
  *
  *   worlds (0..θ)  →  per-world all-densest node sets (task-local flow
  *   computation)  →  DataFrame[(world, weight, nodeSet)]  →
  *   groupBy(nodeSet) Σ weight / θ  =  τ̂  →  top-k.
  */
object MPDS {

  /** One candidate node set with its estimated densest subgraph probability. */
  final case class Candidate(nodes: Seq[Int], tauHat: Double)

  /** `cappedWorlds` counts the worlds with more than `capPerWorld` densest
    * subgraphs, whose family was truncated; when it is > 0, τ̂ and
    * `numCandidates` may be too low.
    */
  final case class Result(
      topK: Seq[Candidate],
      numCandidates: Long,
      cappedWorlds: Long,
  )

  /** One row (world, weight, capped, sets) per world: `keys(i, world)` gives the
    * keys of the node sets world `i` counts for, and whether a cap truncated them.
    */
  private[core] def perWorld(spark: SparkSession, g: UncertainGraph, worlds: Worlds)(
      keys: (Long, Graph) => (Seq[String], Boolean)): DataFrame = {
    import spark.implicits._
    worlds
      .map(spark, g) { (i, w, world) => val (sets, capped) = keys(i, world); (i, w, capped, sets.toArray) }
      .toDF("world", "weight", "capped", "sets")
  }

  /** The keys of world `i`'s densest subgraphs (Line 5 of Algorithm 1), at most `cap`, and
    * whether the world has more than `cap`. `allPerWorld = false` keeps one, drawn uniformly (the
    * ablation of Table IX); `heuristic = true` takes the §III-C core-based subgraphs instead.
    */
  private[core] def densest(notion: DensityNotion, cap: Int, allPerWorld: Boolean = true,
      heuristic: Boolean = false, seed: Long = 1L)(i: Long, world: Graph): (Seq[String], Boolean) = {
    val (sets, capped) =
      if (heuristic) (notion.heuristicDense(world), false)
      else { val d = notion.allDensest(world, cap); (d.all, d.capped) }
    val chosen =
      if (allPerWorld || sets.isEmpty) sets
      else Seq(sets(Rnd.forWorld(seed ^ 0x5DEECE66DL, i).nextInt(sets.length)))
    (chosen.map(s => NodeSetKey.of(s)), capped)
  }

  /** One row (world, weight, nodeSet) per node set of `perWorld` rows. */
  private[core] def perSet(perWorld: DataFrame): DataFrame =
    perWorld.select(col("world"), col("weight"), explode(col("sets")).as("nodeSet"))

  /** DataFrame of (world, weight, nodeSet) rows — one per densest subgraph
    * per sampled world (Line 5-7 of Algorithm 1); the options are `run`'s.
    */
  def candidateSets(
      spark: SparkSession,
      g: UncertainGraph,
      notion: DensityNotion,
      theta: Int,
      sampler: WorldSampler = WorldSampler.MonteCarlo,
      seed: Long = 1L,
      allPerWorld: Boolean = true,
      heuristic: Boolean = false,
      capPerWorld: Int = 100000,
  ): DataFrame =
    perSet(perWorld(spark, g, Worlds.Sampled(theta, sampler, seed))(
      densest(notion, capPerWorld, allPerWorld, heuristic, seed)))

  /** (nodeSet, freq, tau) per node set: `freq` counts its worlds and `tau` is their weight over
    * `total`, the weight of all worlds (θ when sampled, where tau = τ̂ = freq / θ).
    */
  def tauHatDF(candidates: DataFrame, total: Double): DataFrame =
    candidates
      .groupBy("nodeSet")
      .agg(count(lit(1)).as("freq"), sum("weight").as("mass"))
      .select(col("nodeSet"), col("freq"), (col("mass") / lit(total)).as("tau"))

  /** The `k` node sets of highest tau in `tau`, ties broken by key order. */
  private[core] def top(tau: DataFrame, k: Int): Seq[(Seq[Int], Double)] =
    tau.orderBy(desc("tau"), asc("nodeSet")).limit(k).collect().toSeq
      .map(r => (NodeSetKey.parse(r.getAs[String]("nodeSet")), r.getAs[Double]("tau")))

  /** Full Algorithm 1: top-k node sets by τ̂, in one Spark query. */
  def run(
      spark: SparkSession,
      g: UncertainGraph,
      notion: DensityNotion,
      k: Int,
      theta: Int,
      sampler: WorldSampler = WorldSampler.MonteCarlo,
      seed: Long = 1L,
      allPerWorld: Boolean = true,
      heuristic: Boolean = false,
      capPerWorld: Int = 100000,
  ): Result = {
    val capped = Observation()
    val candidates = Observation()
    val worlds = perWorld(spark, g, Worlds.Sampled(theta, sampler, seed))(densest(notion, capPerWorld,
      allPerWorld, heuristic, seed)).observe(capped, count_if(col("capped")).as("n"))
    val tau = tauHatDF(perSet(worlds), theta).observe(candidates, count(lit(1)).as("n"))
    val topK = top(tau, k).map { case (nodes, t) => Candidate(nodes, t) }
    // With no candidate rows, adaptive execution replaces the empty stages
    // and their observed counts never run: a missing count is 0.
    def n(o: Observation) = o.get.getOrElse("n", 0L).asInstanceOf[Long]
    Result(topK, n(candidates), n(capped))
  }

  /** Per-world number of densest subgraphs (Table VIII): DataFrame of
    * (world, numDensest, capped), where `capped` marks a world with more
    * than `capPerWorld` densest subgraphs.
    */
  def worldStats(
      spark: SparkSession,
      g: UncertainGraph,
      notion: DensityNotion,
      theta: Int,
      sampler: WorldSampler = WorldSampler.MonteCarlo,
      seed: Long = 1L,
      capPerWorld: Int = 100000,
  ): DataFrame =
    perWorld(spark, g, Worlds.Sampled(theta, sampler, seed))(densest(notion, capPerWorld))
      .select(col("world"), size(col("sets")).cast("long").as("numDensest"), col("capped"))

  /** The weight of the worlds where `hit(world, optimum, U)` holds, over
    * the weight of all worlds, for each U of `sets`. `optimum` is
    * `allDensest(world, 1)`: ρ* and the maximum-sized densest subgraph.
    */
  private[core] def score(spark: SparkSession, g: UncertainGraph, worlds: Worlds, notion: DensityNotion,
      sets: Seq[Set[Int]])(hit: (Graph, DensityNotion.World, Set[Int]) => Boolean): Seq[Double] = {
    val keyed = sets.distinct.map(u => (u, NodeSetKey.of(u)))
    val hits = perWorld(spark, g, worlds) { (_, world) =>
      val opt = notion.allDensest(world, 1)
      (keyed.collect { case (u, key) if hit(world, opt, u) => key }, false)
    }
    val tau = tauHatDF(perSet(hits), worlds.total).collect().map(r => r.getString(0) -> r.getDouble(2)).toMap
    sets.map(u => tau.getOrElse(NodeSetKey.of(u), 0.0))
  }

  /** Estimate τ(U) for given node sets: the fraction of sampled worlds in
    * which U's induced density equals the world's optimum (and is > 0).
    * Used to score baseline subgraphs (EDS / cores / trusses / DDS) in
    * Tables IV and VII.
    */
  def estimateTau(
      spark: SparkSession,
      g: UncertainGraph,
      notion: DensityNotion,
      sets: Seq[Set[Int]],
      theta: Int,
      sampler: WorldSampler = WorldSampler.MonteCarlo,
      seed: Long = 1L,
  ): Seq[Double] =
    score(spark, g, Worlds.Sampled(theta, sampler, seed), notion, sets) { (world, opt, u) =>
      val (num, den) = notion.densityOf(world, u)
      num > 0 && num * opt.den == opt.num * den
    }

  /** Estimate γ(U): fraction of worlds whose maximum-sized densest subgraph
    * contains U (Tables III and XI/XII quality columns).
    */
  def estimateGamma(
      spark: SparkSession,
      g: UncertainGraph,
      notion: DensityNotion,
      sets: Seq[Set[Int]],
      theta: Int,
      sampler: WorldSampler = WorldSampler.MonteCarlo,
      seed: Long = 1L,
  ): Seq[Double] = score(spark, g, Worlds.Sampled(theta, sampler, seed), notion, sets)(contained)

  /** U lies in the world's maximum-sized densest subgraph (γ: Definition 5, via footnote 5). */
  private[core] val contained: (Graph, DensityNotion.World, Set[Int]) => Boolean =
    (_, opt, u) => u.nonEmpty && u.subsetOf(opt.maxSized.toSet)
}
