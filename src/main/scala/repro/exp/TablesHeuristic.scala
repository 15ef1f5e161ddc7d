package repro.exp

import org.apache.spark.sql.SparkSession
import repro.core.{DensityNotion, MPDS, NDS}
import repro.data.Datasets
import repro.graph.Pattern
import repro.uncertain.UncertainGraph
import Harness._

/** Tables XI and XII: approximate, then heuristic NDS of `g`, each timed
  * after one untimed warm-up query of both, and scored by γ̂ of its top
  * nucleus on the worlds of `gammaSeed`.
  */
private object HeuristicNDS {

  /** ((γ̂, ms) of approximate NDS, (γ̂, ms) of heuristic NDS). */
  def compare(spark: SparkSession, g: UncertainGraph, notion: DensityNotion, theta: Int, seed: Long,
      gammaSeed: Long): ((Double, Long), (Double, Long)) = {
    def query(heuristic: Boolean) = NDS.run(spark, g, notion, k = 1, lm = 2, theta = theta, seed = seed, heuristic = heuristic)
    def once(heuristic: Boolean): (Double, Long) = {
      val (r, ms) = time(query(heuristic))
      val gamma = r.topK.headOption.map { top =>
        MPDS.estimateGamma(spark, g, notion, Seq(top.nodes.toSet), theta, seed = gammaSeed).head
      }.getOrElse(0.0)
      (gamma, ms)
    }
    // One untimed query of each method first, so that neither timed run
    // pays for the JVM's and Spark's first jobs.
    query(heuristic = false)
    query(heuristic = true)
    val approx = once(heuristic = false)
    (approx, once(heuristic = true))
  }
}

/** Table XI — approximate vs heuristic Pattern-NDS on Karate Club:
  * containment probability of the top nucleus and running time, for the
  * four patterns.
  */
object TableXI {
  def run(spark: SparkSession, theta: Int = 320): Table = {
    val g = Datasets.karate()
    val rows = Pattern.all.map { psi =>
      val ((ga, ta), (gh, th)) = HeuristicNDS.compare(spark, g, DensityNotion.Pat(psi), theta, 501L, 907L)
      Seq(psi.name, f3(ga), f3(gh), secs(ta), secs(th))
    }
    Table(s"Table XI: approximate vs heuristic Pattern-NDS (Karate Club, theta=$theta)",
      Seq("pattern", "Approx gamma", "Heuristic gamma", "Approx s", "Heuristic s"), rows)
  }
}

/** Table XII — approximate vs heuristic Edge-NDS on the Friendster-like
  * dataset (the very-low-probability regime where the paper switches to the
  * heuristic for its largest graph).
  */
object TableXII {
  def run(spark: SparkSession, theta: Int = 64): Table = {
    val g = Datasets.friendsterLike()
    val ((ga, ta), (gh, th)) = HeuristicNDS.compare(spark, g, DensityNotion.Edge, theta, 503L, 909L)
    Table(s"Table XII: approximate vs heuristic Edge-NDS (Friendster-like, theta=$theta)",
      Seq("method", "Containment prob", "Running time s"),
      Seq(Seq("Approximate", f3(ga), secs(ta)), Seq("Heuristic", f3(gh), secs(th))))
  }
}
