package repro.core

import org.apache.spark.sql.SparkSession
import repro.uncertain.UncertainGraph

/** Exact MPDS by exhaustive possible-world enumeration (§VI-H baseline):
  * Algorithm 1's per-world functions and aggregation over all 2^m worlds
  * (`Worlds.Enumerated`), each weighted by Pr(world) and with no cap on the
  * densest family, give the exact densest subgraph probabilities τ(U).
  * Feasible for m <= ~24 — which is the paper's point (Table XV).
  */
object ExactMPDS {

  final case class Candidate(nodes: Seq[Int], tau: Double)

  /** Exact top-k MPDS: the `k` node sets of highest τ > 0 with their τ, ties
    * in numeric order of the sorted ids; `k = Int.MaxValue` gives every set
    * with τ > 0 (Table I).
    */
  def topK(spark: SparkSession, g: UncertainGraph, notion: DensityNotion, k: Int): Seq[Candidate] =
    MPDS.tally(spark, g, Worlds.Enumerated, MPDS.densest(notion, Int.MaxValue), k).topK
      .map(c => Candidate(c.nodes, c.tauHat))

  /** Exact γ(U) = Σ Pr(world) over worlds whose maximum-sized densest
    * subgraph contains U (Definition 5, via footnote 5).
    */
  def gammaOf(spark: SparkSession, g: UncertainGraph, notion: DensityNotion, u: Set[Int]): Double =
    MPDS.score(spark, g, Worlds.Enumerated, notion, Seq(u))(MPDS.contained).head
}
