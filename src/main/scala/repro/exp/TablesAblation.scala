package repro.exp

import org.apache.spark.sql.SparkSession
import repro.core.{DensityNotion, MPDS}
import repro.data.Datasets
import repro.graph.{Cliques, HyperPeeling, Pattern}
import repro.uncertain.{EDS, Metrics, UncertainCore, UncertainTruss}
import Harness._

/** Table VIII — distribution (mean, std, quartiles) of the number of
  * densest subgraphs per sampled world (edge / 3-clique / diamond).
  * Enumeration is capped per world (DESIGN.md): the quartiles are exact
  * whenever at or below the cap; where `capped` > 0, worlds had more
  * densest subgraphs than the cap and the mean is a lower bound (the heavy tail is the paper's point about LastFM).
  */
object TableVIII {
  val Cap = 4096

  /** Mean, population std, quartiles and capped count of the worlds'
    * densest counts. A quartile interpolates linearly between the two
    * nearest ranks, as Spark's `percentile` and DuckDB's `quantile_cont` do.
    */
  def summary(stats: Seq[MPDS.WorldStat]): (Double, Double, Seq[Double], Int) = {
    val x = stats.map(_.numDensest.toDouble).sorted.toArray
    val mean = x.sum / x.length
    val std = math.sqrt(x.map(v => (v - mean) * (v - mean)).sum / x.length)
    def quantile(p: Double): Double = {
      val r = p * (x.length - 1)
      val (lo, hi) = (r.floor.toInt, r.ceil.toInt)
      if (lo == hi) x(lo) else (hi - r) * x(lo) + (r - lo) * x(hi)
    }
    (mean, std, Seq(0.25, 0.5, 0.75).map(quantile), stats.count(_.capped))
  }

  def run(spark: SparkSession): Table = {
    val datasets = Seq(
      ("KarateClub", Datasets.karate(), 320),
      ("LastFM-like", Datasets.lastFmLike(), 160),
    )
    val notions = Seq(
      DensityNotion.Edge, DensityNotion.Clique(3), DensityNotion.Pat(Pattern.Diamond))
    val rows = for ((name, g, theta) <- datasets; notion <- notions) yield {
      val (mean, std, quartiles, capped) =
        summary(MPDS.worldStats(spark, g, notion, theta, seed = 401L, capPerWorld = Cap))
      Seq(name, notion.name, f(mean), f(std), quartiles.map(_.toLong).mkString("{", ", ", "}"), capped.toString)
    }
    Table(s"Table VIII: #densest subgraphs per sampled world (cap $Cap)",
      Seq("dataset", "notion", "mean", "std", "quartiles", "capped"), rows)
  }
}

/** Table IX — average estimated DSP of the top-10 MPDSs when every densest
  * subgraph per world is counted vs only one randomly chosen one.
  */
object TableIX {
  def run(spark: SparkSession): Table = {
    val datasets = Seq(
      ("KarateClub", Datasets.karate(), 320),
      ("LastFM-like", Datasets.lastFmLike(), 160),
    )
    val notions = Seq(
      DensityNotion.Edge, DensityNotion.Clique(3), DensityNotion.Pat(Pattern.Diamond))
    val rows = for ((name, g, theta) <- datasets) yield {
      val cells = notions.flatMap { notion =>
        def avgTop10(allPerWorld: Boolean): Double = {
          val r = MPDS.run(spark, g, notion, k = 10, theta = theta, seed = 403L,
            allPerWorld = allPerWorld, capPerWorld = TableVIII.Cap)
          if (r.topK.isEmpty) 0.0 else r.topK.map(_.tauHat).sum / r.topK.size
        }
        Seq(f(avgTop10(true)), f(avgTop10(false)))
      }
      name +: cells
    }
    Table("Table IX: avg DSP of top-10 MPDSs, all vs one densest per world",
      Seq("dataset", "edge All", "edge One", "3-clique All", "3-clique One",
        "diamond All", "diamond One"), rows)
  }
}

/** Table X — purity of the top-k node sets (Karate Club, ground-truth
  * factions): MPDS top-k vs EDS-style ranking, η-cores and γ-trusses (the
  * last two have only two distinct levels on Karate, as in the paper).
  */
object TableX {
  def run(spark: SparkSession): Table = {
    val g = Datasets.karate()
    val comm = Datasets.karateCommunities
    val theta = 320
    val mpds = MPDS.run(spark, g, DensityNotion.Edge, k = 10, theta = theta, seed = 405L)
    val mpdsSets = mpds.topK.map(_.nodes.toSet)

    // EDS "top-k": distinct peel suffixes of the expected graph ranked by
    // expected density (documented stand-in for a top-k expected-densest
    // enumeration, which [44] does not define).
    val pr = HyperPeeling.peel(g.n, Cliques.enumerate(g.deterministic, 2))
    val edsRanked = (0 until g.n).map { start =>
      (start until g.n).map(pr.order).toSet
    }.distinct
      .filter(_.nonEmpty)
      .sortBy(s => -EDS.expectedEdgeDensity(g, s))
      .take(10)

    // Cores / trusses: distinct levels, innermost first.
    val core = UncertainCore.coreNumbers(g, Baselines.Eta)
    val coreLevels = core.distinct.sorted.reverse.toSeq
      .map(k => (0 until g.n).filter(core(_) >= k).toSet).filter(_.nonEmpty)
    val truss = UncertainTruss.trussNumbers(g, Baselines.Gamma)
    val trussLevels = truss.distinct.sorted.reverse.toSeq
      .map(k => (0 until g.m).filter(truss(_) >= k)
        .flatMap(e => Seq(g.edgeU(e), g.edgeV(e))).toSet).filter(_.nonEmpty)

    def avgPurity(sets: Seq[Set[Int]], k: Int): String =
      if (sets.size < k) "-"
      else f3(sets.take(k).map(Metrics.purity(_, comm)).sum / k)

    val rows = Seq(1, 2, 5, 10).map { k =>
      Seq(k.toString, avgPurity(mpdsSets, k), avgPurity(edsRanked, k),
        avgPurity(coreLevels, k), avgPurity(trussLevels, k))
    }
    Table("Table X: purity of top-k node sets (Karate Club)",
      Seq("top-k", "MPDS", "EDS", "Core", "Truss"), rows)
  }
}
