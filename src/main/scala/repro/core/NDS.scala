package repro.core

import org.apache.spark.sql.SparkSession
import repro.mining.TFP
import repro.uncertain.{UncertainGraph, WorldSampler}

/** Algorithm 5 — top-k Nucleus Densest Subgraphs: sample θ worlds, collect
  * each world's *maximum-sized* densest subgraph (the union of all densest
  * subgraphs, footnote 5 / [58]) as a transaction, then mine the top-k
  * closed node sets of size >= l_m with TFP.
  *
  * The sampling fan-out runs across the cluster as one RDD job, with no SQL;
  * transactions (θ node sets) are collected to the driver for the
  * itemset-mining step, exactly as the paper runs TFP on the candidate set CV.
  */
object NDS {

  final case class Nucleus(nodes: Seq[Int], gammaHat: Double)

  /** `truncated` is TFP's: its search stopped at its limit of visited
    * tidsets, so `topK` may be partial.
    */
  final case class Result(topK: Seq[Nucleus], transactions: Seq[Set[Int]], truncated: Boolean)

  /** The per-world candidate (Line 4). With `heuristic = true`, the
    * §III-C core-based substitute stands in for the maximum-sized densest
    * subgraph: the union of the innermost core and all denser peel suffixes,
    * which is one peel suffix ([[DensityNotion.heuristicDense]]).
    */
  def transactions(
      spark: SparkSession,
      g: UncertainGraph,
      notion: DensityNotion,
      theta: Int,
      sampler: WorldSampler = WorldSampler.MonteCarlo,
      seed: Long = 1L,
      heuristic: Boolean = false,
  ): Seq[Set[Int]] =
    Worlds.Sampled(theta, sampler, seed)
      .flatMap(spark, g) { (_, _, world) =>
        Iterator.single(
          if (heuristic) notion.heuristicDense(world)
          else notion.family(world).maxSized)
      }
      .collect().toSeq.map(_.toSet)

  /** Full Algorithm 5. */
  def run(
      spark: SparkSession,
      g: UncertainGraph,
      notion: DensityNotion,
      k: Int,
      lm: Int,
      theta: Int,
      sampler: WorldSampler = WorldSampler.MonteCarlo,
      seed: Long = 1L,
      heuristic: Boolean = false,
  ): Result = {
    val tx = transactions(spark, g, notion, theta, sampler, seed, heuristic)
    val nonEmpty = tx.filter(_.nonEmpty)
    val mined = TFP.mine(nonEmpty, k, lm)
    val top = mined.topK.map(c => Nucleus(c.items.toSeq.sorted, c.support.toDouble / theta))
    Result(top, tx, mined.truncated)
  }
}
