package repro.bench

import repro.SparkSpec
import repro.exp._

/** One bench per evaluation table. Each bench regenerates the table's rows
  * (printed to stdout) and asserts the
  * paper's *shape*: which method wins and by roughly what relation.
  * Absolute numbers live side-by-side with the paper's in EXPERIMENTS.md.
  */
class TableIBench extends SparkSpec {
  test("Table I: exact EED and DSP of the Figure 1 graph") {
    val t = TableI.run(spark)
    println(t.render)
    val eed = t.rows(0).drop(1).map(_.toDouble)
    val dsp = t.rows(1).drop(1).map(_.toDouble)
    // Paper Table I (rounded): EED .2 .2 .35 .27 .37 .38 / DSP .07 .24 .42 .05 .17 .28
    val paperEED = Seq(0.2, 0.2, 0.35, 0.2667, 0.3667, 0.375)
    val paperDSP = Seq(0.072, 0.24, 0.42, 0.048, 0.168, 0.28)
    for ((g, p) <- eed.zip(paperEED)) assert(math.abs(g - p) < 1e-3)
    for ((g, p) <- dsp.zip(paperDSP)) assert(math.abs(g - p) < 1e-6)
  }
}

class TableIIBench extends SparkSpec {
  test("Table II: dataset stand-in characteristics") {
    val t = TableII.run(spark)
    println(t.render)
    assert(t.rows.size == 7)
    val karate = t.rows.head
    assert(karate(1) == "34" && karate(2) == "78")
  }
}

class TableIIIBench extends SparkSpec {
  test("Table III: NDS containment beats EDS; expected densities comparable") {
    val t = TableIII.run(spark)
    println(t.render)
    for (r <- t.rows) {
      val Seq(nds, eds, core, truss) = r.slice(1, 5).map(_.toDouble)
      assert(nds >= eds - 1e-9, s"${r.head}: NDS $nds < EDS $eds")
      assert(nds + 0.05 >= core, s"${r.head}: NDS $nds far below core $core")
      assert(nds + 0.05 >= truss, s"${r.head}: NDS $nds far below truss $truss")
      // Expected density of NDS within ~30% of the optimal (EDS) one.
      val Seq(edNds, edEds) = r.slice(5, 7).map(_.toDouble)
      assert(edNds >= 0.5 * edEds, s"${r.head}: NDS expected density too far from EDS")
    }
  }
}

class TableIVBench extends SparkSpec {
  test("Table IV: MPDS has the highest densest subgraph probability") {
    val t = TableIV.run(spark)
    println(t.render)
    for (r <- t.rows) {
      val Seq(mpds, eds, core, truss) = r.slice(1, 5).map(_.toDouble)
      assert(mpds >= eds - 1e-9, s"${r.head}: MPDS $mpds < EDS $eds")
      assert(mpds >= core - 1e-9, s"${r.head}: MPDS $mpds < core $core")
      assert(mpds >= truss - 1e-9, s"${r.head}: MPDS $mpds < truss $truss")
    }
  }
}

class TablesVVIBench extends SparkSpec {
  test("Tables V-VI: our subgraphs are most cohesive (PD) and best clustered (PCC)") {
    val (tv, tvi) = TablesVVI.run(spark)
    println(tv.render)
    println(tvi.render)
    for (t <- Seq(tv, tvi); r <- t.rows) {
      val Seq(ours, eds, core, truss) = r.drop(1).map(_.toDouble)
      assert(ours >= eds - 1e-9, s"${t.title} ${r.head}: ours $ours < EDS $eds")
      assert(ours >= core - 1e-9, s"${t.title} ${r.head}: ours $ours < core $core")
      // The innermost truss may come close (paper: "slightly lower").
      assert(ours + 0.05 >= truss, s"${t.title} ${r.head}: ours $ours far below truss $truss")
    }
  }
}

class TableVIIBench extends SparkSpec {
  test("Table VII: MPDS beats the deterministic densest subgraph") {
    val t = TableVII.run(spark)
    println(t.render)
    for (r <- t.rows) {
      val Seq(mpds, dds) = r.drop(1).map(_.toDouble)
      assert(mpds >= dds - 1e-9, s"${r.head}: MPDS $mpds < DDS $dds")
    }
  }
}

class TableVIIIBench extends SparkSpec {
  test("Table VIII: sparse low-probability graphs have many tied densest subgraphs") {
    val t = TableVIII.run(spark)
    println(t.render)
    def quartiles(r: Seq[String]): Seq[Long] =
      r(4).stripPrefix("{").stripSuffix("}").split(",").map(_.trim.toLong).toSeq
    val byKey = t.rows.map(r => (r(0), r(1)) -> r).toMap
    // Karate's typical world has a single densest subgraph (paper mean 1.12);
    // the LastFM-like graph's tie counts are much heavier-tailed (paper
    // quartiles {15, 127, 1023}). Means are dominated by rare capped
    // blow-up worlds, so the shape claim is on the quartiles.
    assert(quartiles(byKey(("KarateClub", "edge")))(1) <= 2, "karate median should be ~1")
    assert(quartiles(byKey(("LastFM-like", "edge")))(2) >
      quartiles(byKey(("KarateClub", "edge")))(2), "LastFM-like tail must be heavier")
  }
}

class TableIXBench extends SparkSpec {
  test("Table IX: counting all densest subgraphs dominates counting one") {
    val t = TableIX.run(spark)
    println(t.render)
    for (r <- t.rows; i <- Seq(1, 3, 5)) {
      val all = r(i).toDouble; val one = r(i + 1).toDouble
      assert(all >= one - 0.01, s"${r.head} col $i: all $all < one $one")
    }
  }
}

class TableXBench extends SparkSpec {
  test("Table X: MPDS top-k purity dominates the baselines") {
    val t = TableX.run(spark)
    println(t.render)
    for (r <- t.rows) {
      val mpds = r(1).toDouble
      for (c <- r.drop(2); if c != "-")
        assert(mpds >= c.toDouble - 0.05, s"top-${r.head}: MPDS $mpds below baseline $c")
    }
    // Top-1 MPDS should be (nearly) pure — a single-faction community.
    assert(t.rows.head(1).toDouble >= 0.8)
  }
}

class TableXIBench extends SparkSpec {
  test("Table XI: heuristic Pattern-NDS trades little quality for speed") {
    val t = TableXI.run(spark)
    println(t.render)
    for (r <- t.rows) {
      val approxG = r(1).toDouble; val heurG = r(2).toDouble
      assert(heurG >= approxG * 0.5 - 0.05, s"${r.head}: heuristic quality collapsed")
    }
  }
}

class TableXIIBench extends SparkSpec {
  test("Table XII: heuristic Edge-NDS is faster at comparable quality (Friendster-like)") {
    val t = TableXII.run(spark)
    println(t.render)
    val approx = t.rows(0); val heur = t.rows(1)
    assert(heur(2).toDouble <= approx(2).toDouble * 1.5 + 1.0, "heuristic much slower than approximate")
    assert(heur(1).toDouble >= approx(1).toDouble * 0.3 - 0.05)
  }
}

class TableXIIIBench extends SparkSpec {
  test("Table XIII: all samplers converge at similar theta (MPDS, IntelLab-like)") {
    val t = SamplingTables.tableXIII(spark)
    println(t.render)
    val thetas = t.rows.map(_(1).toInt)
    assert(thetas.forall(th => th >= 10 && th <= 640))
    assert(thetas.max <= thetas.min * 4, s"sampler thetas too far apart: $thetas")
    // MC uses no auxiliary memory; LP/RSS do.
    assert(t.rows.find(_.head == "MC").get(3).toDouble == 0.0)
    assert(t.rows.find(_.head == "LP").get(3).toDouble > 0.0)
  }
}

class TableXIVBench extends SparkSpec {
  test("Table XIV: all samplers converge at similar theta (NDS, Biomine-like)") {
    val t = SamplingTables.tableXIV(spark)
    println(t.render)
    val thetas = t.rows.map(_(1).toInt)
    assert(thetas.forall(th => th >= 10 && th <= 640))
    assert(t.rows.find(_.head == "LP").get(3).toDouble >
      t.rows.find(_.head == "RSS").get(3).toDouble,
      "LP's per-edge counters should outweigh RSS's strata table on a large graph")
  }
}

class TableXVBench extends SparkSpec {
  test("Table XV: exact blows up exponentially; sampling stays fast and accurate") {
    val t = TableXV.run(spark)
    println(t.render)
    val byName = t.rows.map(r => r.head -> r).toMap
    // The exact method's cost must blow up exponentially with m while the
    // sampling method stays flat: on the largest graph (m=25) exact must be
    // >= 20x slower than ours, and >= 10x its own cost at m=19.
    val er9 = byName("ER_9"); val er7 = byName("ER_7")
    assert(er9(2).toDouble > er9(3).toDouble * 20,
      s"ER_9: exact ${er9(2)}s not >> ours ${er9(3)}s")
    assert(er9(2).toDouble > er7(2).toDouble * 10,
      s"exact cost did not blow up from m=${er7(1)} to m=${er9(1)}")
    // Accuracy: top-k F1 vs exact reasonably high for edge density.
    for (r <- t.rows) assert(r(4).toDouble >= 0.5, s"${r.head}: edge F1 ${r(4)}")
  }
}
