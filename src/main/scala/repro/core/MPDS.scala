package repro.core

import org.apache.spark.sql.SparkSession
import repro.graph.Graph
import repro.uncertain.{Rnd, UncertainGraph, WorldSampler}

/** Algorithm 1 — sampling-based top-k MPDS estimation, as one Spark job:
  *
  *   worlds (0..θ)  →  per-world all-densest node sets (task-local flow
  *   computation, an RDD)  →  one key per world and densest set, routed by
  *   its hash to one of R reducers  →  per key count / θ  =  τ̂  →  each
  *   reducer's top-k  →  the driver's merge of the R lists.
  *
  * No estimator here plans SQL: the fixed-set scorers (`estimateTau`,
  * `estimateGamma`) fold the RDD, and `worldStats` collects its rows.
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

  /** Algorithm 1 lines 5–8 over `worlds`: every node set that `rows(i, world)` gives for some
    * world, credited with the world's weight and ranked by τ (its weight over `worlds.total`),
    * ties in key order; the `k` best, the number of distinct sets and the rows flagged capped
    * (one per capped world). Keys are built in the task, one set at a time, and counted (summed,
    * for enumerated worlds) by [[SetTally]]: one Spark job, no SQL.
    */
  private[core] def tally(spark: SparkSession, g: UncertainGraph, worlds: Worlds,
      rows: (Long, Graph) => Iterator[(Array[Int], Boolean)], k: Int): Result = {
    val keyed = worlds.flatMap(spark, g) { (i, w, world) =>
      rows(i, world).map { case (u, c) => (NodeSetKey.of(u), c, w) }
    }
    val t = SetTally(keyed, k, weighted = worlds == Worlds.Enumerated, spark.sparkContext.defaultParallelism)
    Result(t.top.map { case (key, mass) => Candidate(NodeSetKey.parse(key), mass / worlds.total) },
      t.distinct, t.capped)
  }

  /** Full Algorithm 1: top-k node sets by τ̂, in one Spark job. */
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
  ): Result =
    tally(spark, g, Worlds.Sampled(theta, sampler, seed), densest(notion, capPerWorld, allPerWorld, seed), k)

  /** One sampled world's number of densest subgraphs; `capped` marks a
    * world with more than the cap, whose count stops at the cap.
    */
  final case class WorldStat(world: Long, numDensest: Long, capped: Boolean)

  /** Per-world number of densest subgraphs (Table VIII), in world order. */
  def worldStats(
      spark: SparkSession,
      g: UncertainGraph,
      notion: DensityNotion,
      theta: Int,
      sampler: WorldSampler = WorldSampler.MonteCarlo,
      seed: Long = 1L,
      capPerWorld: Int = 100000,
  ): Seq[WorldStat] = {
    val sets = densest(notion, capPerWorld)
    Worlds.Sampled(theta, sampler, seed).flatMap(spark, g) { (i, _, world) =>
      var numDensest = 0L
      var capped = false
      for ((_, last) <- sets(i, world)) { numDensest += 1; capped ||= last }
      Iterator.single(WorldStat(i, numDensest, capped))
    }.collect().toSeq
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
