package repro.exp

import org.apache.spark.sql.SparkSession
import repro.core.{DensityNotion, ExactMPDS}
import repro.data.Datasets
import repro.uncertain.{EDS, UncertainGraph}
import Harness._

/** Table I — exact expected edge densities and densest subgraph
  * probabilities of the Figure 1 example (the only table whose absolute
  * numbers are exactly reproducible: the uncertain graph is AB=0.4,
  * AC=0.4, BD=0.7, recovered from the worlds' probabilities).
  */
object TableI {
  val fig1: UncertainGraph =
    UncertainGraph.fromEdges(4, Seq((0, 1, 0.4), (0, 2, 0.4), (1, 3, 0.7)))

  private val sets = Seq(
    "{A,B}" -> Set(0, 1), "{A,C}" -> Set(0, 2), "{B,D}" -> Set(1, 3),
    "{A,B,C}" -> Set(0, 1, 2), "{A,B,D}" -> Set(0, 1, 3),
    "{A,B,C,D}" -> Set(0, 1, 2, 3),
  )

  def run(spark: SparkSession): Table = {
    val tau = ExactMPDS.topK(spark, fig1, DensityNotion.Edge, Int.MaxValue).map(c => c.nodes.toSet -> c.tau).toMap
    val eedRow = "EED" +: sets.map { case (_, s) => f(EDS.expectedEdgeDensity(fig1, s)) }
    val dspRow = "DSP" +: sets.map { case (_, s) => f(tau.getOrElse(s, 0.0)) }
    Table("Table I: EED and DSP of node sets (Figure 1 graph)",
      "metric" +: sets.map(_._1), Seq(eedRow, dspRow))
  }
}

/** Table II — dataset characteristics: the stand-ins' achieved scale and
  * probability statistics next to the paper's reported ones.
  */
object TableII {
  def datasets: Seq[(String, UncertainGraph)] = Seq(
    "KarateClub" -> Datasets.karate(),
    "IntelLab-like" -> Datasets.intelLabLike(),
    "LastFM-like" -> Datasets.lastFmLike(),
    "HomoSapiens-like" -> Datasets.homoSapiensLike(),
    "Biomine-like" -> Datasets.biomineLike(),
    "Twitter-like" -> Datasets.twitterLike(),
    "Friendster-like" -> Datasets.friendsterLike(),
  )

  def run(spark: SparkSession): Table = {
    val rows = datasets.map { case (name, g) =>
      val (mean, std, (q1, q2, q3)) = g.probStats
      Seq(name, g.n.toString, g.m.toString, f3(mean), f3(std), s"{${f3(q1)}, ${f3(q2)}, ${f3(q3)}}")
    }
    Table("Table II: dataset stand-ins (n, m, edge-prob mean/std/quartiles)",
      Seq("dataset", "n", "m", "mean", "std", "quartiles"), rows)
  }
}
