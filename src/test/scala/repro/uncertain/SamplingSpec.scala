package repro.uncertain

import org.scalatest.funsuite.AnyFunSuite

class SamplingSpec extends AnyFunSuite {

  private val g = UncertainGraph.fromEdges(5,
    Seq((0, 1, 0.8), (1, 2, 0.5), (2, 3, 0.2), (3, 4, 0.65), (0, 4, 0.35)))

  private def empiricalFreqs(s: WorldSampler, theta: Int): Array[Double] = {
    val counts = new Array[Int](g.m)
    for (i <- 0 until theta) {
      val w = s.worldForIndex(g, i.toLong, theta, seed = 99L)
      for (e <- 0 until g.m; if w(e)) counts(e) += 1
    }
    counts.map(_.toDouble / theta)
  }

  for (s <- WorldSampler.all) {
    test(s"${s.name}: empirical edge frequencies converge to p") {
      val freqs = empiricalFreqs(s, 20000)
      for (e <- 0 until g.m)
        assert(math.abs(freqs(e) - g.prob(e)) < 0.02,
          s"${s.name} edge $e: ${freqs(e)} vs ${g.prob(e)}")
    }

    test(s"${s.name}: deterministic in (index, seed)") {
      val a = s.worldForIndex(g, 3L, 100, 7L)
      val b = s.worldForIndex(g, 3L, 100, 7L)
      assert(a.sameElements(b))
    }
  }

  test("RSS fixes stratified edges exactly proportionally") {
    // With r=4 strata edges, the 4 most-uncertain edges' empirical
    // frequencies should match p up to allocation granularity 1/theta.
    val rss = WorldSampler.RecursiveStratified(4)
    val theta = 5000
    val freqs = empiricalFreqs(rss, theta)
    // Edges sorted by |p-0.5|: e1(.5), e3(.65), e4(.35), e0(.8) are strata.
    for (e <- Seq(1, 3, 4, 0))
      assert(math.abs(freqs(e) - g.prob(e)) < 0.01, s"stratified edge $e")
  }

  test("RSS strata edges are the r of least |p - 1/2|, ties to the lower index") {
    // Exact ties: |0.25 - 0.5| == |0.75 - 0.5| and repeated probabilities.
    val ps = Seq(0.75, 0.5, 0.25, 0.875, 0.5, 0.125, 0.25, 1.0, 0.75, 0.625, 0.375, 0.625)
    val tied = UncertainGraph.fromEdges(ps.length + 1, ps.indices.map(e => (e, e + 1, ps(e))))
    val rnd = new scala.util.Random(3L)
    val random = UncertainGraph.fromEdges(40, (0 until 39).map(u =>
      (u, u + 1 + rnd.nextInt(39 - u), Seq(0.125, 0.25, 0.5, 0.75, 0.875, 1.0)(rnd.nextInt(6)))))
    for (ug <- Seq(tied, random, g); r <- 0 to ug.m + 1) {
      val want = (0 until ug.m).sortBy(e => math.abs(ug.prob(e) - 0.5)).take(math.min(r, ug.m))
      assert(WorldSampler.RecursiveStratified(r).strataEdges(ug).toSeq == want, s"r=$r")
    }
  }

  test("LP reports counter memory, RSS reports strata memory, MC none") {
    assert(WorldSampler.MonteCarlo.auxiliaryBytes(g, 100) == 0L)
    assert(WorldSampler.LazyPropagation.auxiliaryBytes(g, 100) == 8L * g.m)
    assert(WorldSampler.RecursiveStratified(4).auxiliaryBytes(g, 100) > 0L)
  }
}
