package repro.core

import org.apache.spark.sql.{DataFrame, Observation, SparkSession}
import org.apache.spark.sql.functions._
import repro.graph.Graph
import repro.uncertain.{Rnd, UncertainGraph, WorldSampler}

/** Algorithm 1 — sampling-based top-k MPDS estimation, as a Spark dataflow:
  *
  *   worlds (0..θ)  →  per-world all-densest node sets (task-local flow
  *   computation, an RDD)  →  DataFrame[(nodeSet, capped)], one row per
  *   world and densest set  →  groupBy(nodeSet) count / θ  =  τ̂  →  top-k.
  *
  * Only the aggregation runs in Spark SQL; the fixed-set scorers
  * (`estimateTau`, `estimateGamma`) fold the RDD without it.
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

  /** One row (nodeSet, capped) per node set a world counts for, plus the world's `weight` when
    * the worlds are enumerated: `rows(i, world)` gives the node sets of world `i`, each with
    * whether a cap truncated the world's sets after it. Only a capped world's last row has
    * `capped = true`, so `count_if(capped)` counts capped worlds. Keys are built here, in the
    * task, one set at a time.
    */
  private[core] def setRows(spark: SparkSession, g: UncertainGraph, worlds: Worlds)(
      rows: (Long, Graph) => Iterator[(Array[Int], Boolean)]): DataFrame = {
    import spark.implicits._
    def keyed(i: Long, world: Graph) = rows(i, world).map { case (u, c) => (NodeSetKey.of(u), c) }
    worlds match {
      case Worlds.Enumerated =>
        worlds.flatMap(spark, g)((i, w, world) => keyed(i, world).map { case (key, c) => (key, c, w) })
          .toDS().toDF("nodeSet", "capped", "weight")
      case _: Worlds.Sampled =>
        worlds.flatMap(spark, g)((i, _, world) => keyed(i, world)).toDS().toDF("nodeSet", "capped")
    }
  }

  /** The densest subgraphs of world `i` (Line 5 of Algorithm 1), at most `cap`, streamed from
    * Algorithm 3; the last one kept is flagged when the world has more than `cap`.
    * `allPerWorld = false` keeps one, drawn uniformly (the ablation of Table IX), so it reads the
    * capped family whole to know its size.
    */
  private[core] def densest(notion: DensityNotion, cap: Int, allPerWorld: Boolean = true,
      seed: Long = 1L): (Long, Graph) => Iterator[(Array[Int], Boolean)] = {
    // A capped world must keep a row to be counted.
    require(cap > 0, s"the cap on densest subgraphs per world must be positive, not $cap")
    (i, world) =>
      if (allPerWorld) {
        val sets = notion.family(world).sets()
        Iterator.range(0, cap).takeWhile(_ => sets.hasNext).map { j =>
          val u = sets.next()
          (u, j == cap - 1 && sets.hasNext)
        }
      } else {
        val d = notion.allDensest(world, cap)
        if (d.all.isEmpty) Iterator.empty
        else Iterator.single((d.all(Rnd.forWorld(seed ^ 0x5DEECE66DL, i).nextInt(d.all.length)), d.capped))
      }
  }

  /** DataFrame of (nodeSet, capped) rows — one per densest subgraph per
    * sampled world (Line 5-7 of Algorithm 1); the options are `run`'s.
    */
  def candidateSets(
      spark: SparkSession,
      g: UncertainGraph,
      notion: DensityNotion,
      theta: Int,
      sampler: WorldSampler = WorldSampler.MonteCarlo,
      seed: Long = 1L,
      allPerWorld: Boolean = true,
      capPerWorld: Int = 100000,
  ): DataFrame =
    setRows(spark, g, Worlds.Sampled(theta, sampler, seed))(densest(notion, capPerWorld, allPerWorld, seed))

  /** (nodeSet, freq, tau) per node set: `freq` counts its rows, and `tau` is `freq` over `total`
    * (θ: τ̂ = freq / θ), or the sum of the rows' `weight` over `total` when they carry one.
    */
  def tauHatDF(candidates: DataFrame, total: Double): DataFrame = {
    val mass = if (candidates.columns.contains("weight")) sum("weight") else count(lit(1))
    candidates
      .groupBy("nodeSet")
      .agg(count(lit(1)).as("freq"), mass.as("mass"))
      .select(col("nodeSet"), col("freq"), (col("mass") / lit(total)).as("tau"))
  }

  /** The `k` node sets of highest tau in `tau`, ties broken by key order. */
  private[core] def top(tau: DataFrame, k: Int): Seq[(Seq[Int], Double)] =
    tau.orderBy(desc("tau"), asc("nodeSet")).limit(k).collect().toSeq
      .map(r => (NodeSetKey.parse(r.getAs[Array[Byte]]("nodeSet")), r.getAs[Double]("tau")))

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
      capPerWorld: Int = 100000,
  ): Result = {
    val capped = Observation()
    val candidates = Observation()
    val rows = candidateSets(spark, g, notion, theta, sampler, seed, allPerWorld, capPerWorld)
      .observe(capped, count_if(col("capped")).as("n"))
    val tau = tauHatDF(rows, theta).observe(candidates, count(lit(1)).as("n"))
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
  ): DataFrame = {
    import spark.implicits._
    val sets = densest(notion, capPerWorld)
    Worlds.Sampled(theta, sampler, seed).flatMap(spark, g) { (i, _, world) =>
      var numDensest = 0L
      var capped = false
      for ((_, last) <- sets(i, world)) { numDensest += 1; capped ||= last }
      Iterator.single((i, numDensest, capped))
    }.toDS().toDF("world", "numDensest", "capped")
  }

  /** The weight of the worlds where `hit(world, family, U)` holds, over
    * the weight of all worlds, for each U of `sets`. `family` is the
    * world's densest family, read for ρ* and the maximum-sized densest
    * subgraph only: no set of it is enumerated. Each task sums its worlds'
    * weights per distinct set, in world order, and the driver adds the
    * tasks' sums: one job, with no shuffle and no SQL.
    */
  private[core] def score(spark: SparkSession, g: UncertainGraph, worlds: Worlds, notion: DensityNotion,
      sets: Seq[Set[Int]])(hit: (Graph, DensityNotion.Family, Set[Int]) => Boolean): Seq[Double] = {
    val distinct = sets.distinct.toArray
    val mass = worlds.flatMap(spark, g) { (_, w, world) =>
      val family = notion.family(world)
      distinct.indices.iterator.filter(j => hit(world, family, distinct(j))).map(j => (j, w))
    }.aggregate(new Array[Double](distinct.length))(
      { case (acc, (j, w)) => acc(j) += w; acc },
      { (a, b) => for (j <- a.indices) a(j) += b(j); a })
    val index = distinct.zipWithIndex.toMap
    sets.map(u => mass(index(u)) / worlds.total)
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
    score(spark, g, Worlds.Sampled(theta, sampler, seed), notion, sets) { (world, family, u) =>
      val (num, den) = notion.densityOf(world, u)
      num > 0 && num * family.den == family.num * den
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
  private[core] val contained: (Graph, DensityNotion.Family, Set[Int]) => Boolean =
    (_, family, u) => u.nonEmpty && u.subsetOf(family.maxSized.toSet)
}
