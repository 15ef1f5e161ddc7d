package repro.core

import repro.{Oracle, SparkSpec}
import repro.uncertain.{UncertainGraph, WorldSampler}
import repro.data.Datasets
import repro.exp.TableVIII

class MPDSSpec extends SparkSpec {

  private def fig1 = UncertainGraph.fromEdges(4,
    Seq((0, 1, 0.4), (0, 2, 0.4), (1, 3, 0.7)))

  test("sampled tau-hat converges to the exact Table I values") {
    val theta = 4000
    val tau = MPDS.run(spark, fig1, DensityNotion.Edge, Int.MaxValue, theta, seed = 5L).topK
      .map(c => c.nodes -> c.tauHat).toMap
    def t(s: Int*) = tau.getOrElse(s, 0.0)
    assert(math.abs(t(1, 3) - 0.42) < 0.03)
    assert(math.abs(t(0, 2) - 0.24) < 0.03)
    assert(math.abs(t(0, 1, 2, 3) - 0.28) < 0.03)
    assert(math.abs(t(0, 1) - 0.072) < 0.02)
  }

  test("top-1 MPDS of the Figure 1 graph is {B,D}") {
    val r = MPDS.run(spark, fig1, DensityNotion.Edge, k = 1, theta = 2000, seed = 7L)
    assert(r.topK.head.nodes == Seq(1, 3))
    assert(math.abs(r.topK.head.tauHat - 0.42) < 0.05)
  }

  test("estimator is unbiased across seeds (mean of estimates ~ tau)") {
    val runs = (0 until 10).map { s =>
      MPDS.run(spark, fig1, DensityNotion.Edge, Int.MaxValue, 500, seed = 1000L + s).topK
        .find(_.nodes == Seq(1, 3)).fold(0.0)(_.tauHat)
    }
    assert(math.abs(runs.sum / runs.size - 0.42) < 0.03)
  }

  test("tauHat aggregation matches DuckDB (oracle)") {
    import spark.implicits._
    for ((g, theta, cap) <- Seq((fig1, 300, 100000), (Datasets.karate(), 64, 50))) {
      val sets = MPDS.densest(DensityNotion.Edge, cap)
      val rows = Worlds.Sampled(theta, WorldSampler.MonteCarlo, 11L).flatMap(spark, g) { (i, _, world) =>
        sets(i, world).map { case (u, c) => (NodeSetKey.of(u), c) }
      }
      val tally = SetTally(rows.map { case (key, c) => (key, c, 1.0) }, Int.MaxValue, weighted = false,
        spark.sparkContext.defaultParallelism)
      val table = tally.top.map { case (key, n) => (key.map("%02X".format(_)).mkString, n.toLong) }
      assert(tally.distinct == table.size)
      Oracle.assertEquivalent(
        table.toDF("nodeSet", "freq"),
        "SELECT hex(nodeSet) AS nodeSet, COUNT(*) AS freq FROM cands GROUP BY nodeSet",
        "cands" -> rows.toDF("nodeSet", "capped"),
      )
    }
  }

  test("worldStats counts densest subgraphs per world (oracle-checked stats)") {
    import spark.implicits._
    val theta = 200
    val stats = MPDS.worldStats(spark, fig1, DensityNotion.Edge, theta, seed = 13L)
    assert(stats.map(_.world) == (0L until theta))
    // Per-world densest count is 0 (empty world), 1, or 3 (world G7).
    assert(stats.map(_.numDensest).toSet.subsetOf(Set(0L, 1L, 3L)))
    val capped = MPDS.worldStats(spark, Datasets.karate(), DensityNotion.Edge, 64, seed = 13L, capPerWorld = 5)
    assert(capped.exists(_.capped) && capped.exists(!_.capped))
    // Table VIII's statistics, computed on the driver.
    for (rows <- Seq(stats, capped)) {
      val (mean, std, q, nCapped) = TableVIII.summary(rows)
      Oracle.assertEquivalent(
        Seq((mean, std, q(0), q(1), q(2), nCapped.toLong)).toDF("mean", "std", "q1", "q2", "q3", "capped"),
        "SELECT avg(n) AS mean, stddev_pop(n) AS std, quantile_cont(n, 0.25) AS q1, " +
          "quantile_cont(n, 0.5) AS q2, quantile_cont(n, 0.75) AS q3, " +
          "count(*) FILTER (WHERE capped = 'true') AS capped " +
          "FROM (SELECT CAST(numDensest AS BIGINT) AS n, capped FROM stats)",
        "stats" -> rows.toDF(),
      )
    }
  }

  test("all-vs-one: keeping one densest per world underestimates tau") {
    // Use a graph with frequent ties (two disjoint strong edges).
    val ug = UncertainGraph.fromEdges(4, Seq((0, 1, 0.9), (2, 3, 0.9)))
    val theta = 2000
    val all = MPDS.run(spark, ug, DensityNotion.Edge, 3, theta, seed = 17L, allPerWorld = true)
    val one = MPDS.run(spark, ug, DensityNotion.Edge, 3, theta, seed = 17L, allPerWorld = false)
    val tauAll = all.topK.map(c => c.nodes -> c.tauHat).toMap
    val tauOne = one.topK.map(c => c.nodes -> c.tauHat).toMap
    // Both edges tie in ~81% of worlds; with one-per-world each gets ~half.
    val e01 = Seq(0, 1)
    assert(tauAll(e01) > 0.85)
    assert(tauOne.getOrElse(e01, 0.0) < 0.65)
  }

  test("cappedWorlds counts the worlds whose densest family reached the cap") {
    // Two certain disjoint edges: both and their union are densest in every world.
    val ug = UncertainGraph.fromEdges(4, Seq((0, 1, 1.0), (2, 3, 1.0)))
    val capped = MPDS.run(spark, ug, DensityNotion.Edge, 3, theta = 50, seed = 61L, capPerWorld = 1)
    assert(capped.cappedWorlds == 50)
    assert(MPDS.run(spark, fig1, DensityNotion.Edge, 3, theta = 500, seed = 67L).cappedWorlds == 0)
  }

  test("a world with exactly capPerWorld densest subgraphs is not capped") {
    val single = UncertainGraph.fromEdges(2, Seq((0, 1, 1.0)))
    assert(MPDS.run(spark, single, DensityNotion.Edge, 3, theta = 20, seed = 73L, capPerWorld = 1).cappedWorlds == 0)
    val twoEdges = UncertainGraph.fromEdges(4, Seq((0, 1, 1.0), (2, 3, 1.0)))
    assert(MPDS.run(spark, twoEdges, DensityNotion.Edge, 3, theta = 20, seed = 79L, capPerWorld = 3).cappedWorlds == 0)
    assert(MPDS.run(spark, twoEdges, DensityNotion.Edge, 3, theta = 20, seed = 79L, capPerWorld = 2).cappedWorlds == 20)
  }

  test("a capped world flags its last kept row, and only that row") {
    // Two certain disjoint triangles: each and their union are densest.
    val ug = UncertainGraph.fromEdges(6,
      Seq((0, 1, 1.0), (1, 2, 1.0), (0, 2, 1.0), (3, 4, 1.0), (4, 5, 1.0), (3, 5, 1.0)))
    def flags(cap: Int) = Worlds.Sampled(1, WorldSampler.MonteCarlo, 1L).flatMap(spark, ug) { (i, _, world) =>
      MPDS.densest(DensityNotion.Edge, cap)(i, world).map(_._2)
    }.collect().toSeq
    assert(flags(2) == Seq(false, true))
    assert(flags(3) == Seq(false, false, false))
  }

  test("top-k ties break in numeric order of the sorted ids") {
    // Both certain edges and their union are densest in every world.
    val ug = UncertainGraph.fromEdges(12, Seq((2, 3, 1.0), (10, 11, 1.0)))
    val r = MPDS.run(spark, ug, DensityNotion.Edge, 3, theta = 20, seed = 83L)
    assert(r.topK.map(_.nodes) == Seq(Seq(2, 3), Seq(2, 3, 10, 11), Seq(10, 11)))
    assert(r.topK.forall(_.tauHat == 1.0))
  }

  test("a run without candidates reports zero candidates and zero capped worlds") {
    // Figure 1 has no triangle, so no world has a 3-clique-densest subgraph.
    val r = MPDS.run(spark, fig1, DensityNotion.Clique(3), 3, theta = 50, seed = 71L)
    assert(r.topK.isEmpty && r.numCandidates == 0 && r.cappedWorlds == 0)
  }

  test("estimateTau scores arbitrary node sets consistently with exact values") {
    val est = MPDS.estimateTau(spark, fig1, DensityNotion.Edge,
      Seq(Set(1, 3), Set(0, 2), Set(0, 1, 2, 3)), theta = 3000, seed = 19L)
    assert(math.abs(est(0) - 0.42) < 0.03)
    assert(math.abs(est(1) - 0.24) < 0.03)
    assert(math.abs(est(2) - 0.28) < 0.03)
  }

  test("estimateGamma matches Example 3") {
    val est = MPDS.estimateGamma(spark, fig1, DensityNotion.Edge,
      Seq(Set(1, 3)), theta = 3000, seed = 23L)
    assert(math.abs(est.head - 0.7) < 0.03)
  }

  test("samplers agree on tau-hat within sampling error") {
    for (s <- WorldSampler.all) {
      val est = MPDS.estimateTau(spark, fig1, DensityNotion.Edge,
        Seq(Set(1, 3)), theta = 2000, sampler = s, seed = 29L)
      assert(math.abs(est.head - 0.42) < 0.04, s"${s.name}: ${est.head}")
    }
  }
}
