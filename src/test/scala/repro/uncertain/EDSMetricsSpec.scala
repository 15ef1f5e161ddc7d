package repro.uncertain

import org.scalatest.funsuite.AnyFunSuite
import repro.graph.{BruteForce, Cliques, Pattern}
import repro.testkit.Check
import scala.util.Random

class EDSMetricsSpec extends AnyFunSuite {

  private def randomUG(rnd: Random, minN: Int, maxN: Int): UncertainGraph = {
    val det = Check.randomGraph(rnd, minN, maxN)
    UncertainGraph(det.n, det.edgeU, det.edgeV, Check.randomProbs(rnd, det.m))
  }

  test("EDS.edge maximises expected edge density (brute force)") {
    val rnd = new Random(51)
    for (_ <- 0 until 25) {
      val ug = randomUG(rnd, 3, 8)
      if (ug.m > 0) {
        val r = EDS.edge(ug)
        val brute = BruteForce.subsets(ug.n)
          .map(s => EDS.expectedEdgeDensity(ug, s)).max
        assert(math.abs(r.expectedDensity - brute) < 1e-6,
          s"got ${r.expectedDensity} want $brute")
      }
    }
  }

  test("EDS.clique maximises expected 3-clique density (brute force)") {
    val rnd = new Random(61)
    for (_ <- 0 until 15) {
      val ug = randomUG(rnd, 4, 7)
      val det = ug.deterministic
      val tris = Cliques.enumerate(det, 3)
      if (tris.nonEmpty) {
        def probOf(u: Int, v: Int) = {
          val (a, b) = if (u < v) (u, v) else (v, u)
          (0 until ug.m).find(i => ug.edgeU(i) == a && ug.edgeV(i) == b).map(ug.prob).get
        }
        def expDensity(s: Set[Int]) =
          tris.toSeq.collect { case t if t.forall(s.contains) =>
            probOf(t(0), t(1)) * probOf(t(1), t(2)) * probOf(t(0), t(2))
          }.sum / s.size
        val brute = BruteForce.subsets(ug.n).map(expDensity).max
        val r = EDS.clique(ug, 3)
        assert(math.abs(r.expectedDensity - brute) < 1e-5)
      }
    }
  }

  test("EDS.pattern maximises expected 2-star density (brute force)") {
    val rnd = new Random(71)
    for (_ <- 0 until 10) {
      val ug = randomUG(rnd, 3, 6)
      val det = ug.deterministic
      val embs = Pattern.TwoStar.embeddings(det)
      if (embs.nonEmpty) {
        def probOf(u: Int, v: Int) = {
          val (a, b) = if (u < v) (u, v) else (v, u)
          (0 until ug.m).find(i => ug.edgeU(i) == a && ug.edgeV(i) == b).map(ug.prob).get
        }
        def expDensity(s: Set[Int]) =
          embs.toSeq.collect { case (ns, es) if ns.forall(s.contains) =>
            es.map { case (u, v) => probOf(u, v) }.product
          }.sum / s.size
        val brute = BruteForce.subsets(ug.n).map(expDensity).max
        val r = EDS.pattern(ug, Pattern.TwoStar)
        assert(math.abs(r.expectedDensity - brute) < 1e-5)
      }
    }
  }

  test("instances whose weight rounds to 0 are ignored, not fatal") {
    // A pendant edge with p = 1e-7 quantises to weight 0.
    val pendant = UncertainGraph.fromEdges(4,
      Seq((0, 1, 0.9), (1, 2, 0.9), (0, 2, 0.9), (2, 3, 1e-7)))
    val e = EDS.edge(pendant)
    assert(e.nodes == Set(0, 1, 2))
    assert(math.abs(e.expectedDensity - 0.9) < 1e-6)
    // Triangle {2,3,4}: 0.005^3 rounds to 0; its nodes 3, 4 lie in no other triangle.
    val twoTris = UncertainGraph.fromEdges(5, Seq(
      (0, 1, 0.9), (1, 2, 0.9), (0, 2, 0.9),
      (2, 3, 0.005), (3, 4, 0.005), (2, 4, 0.005)))
    val c = EDS.clique(twoTris, 3)
    assert(c.nodes == Set(0, 1, 2))
    assert(math.abs(c.expectedDensity - 0.729 / 3) < 1e-6)
    // The 2-star 2-3-4 weighs 0.0005^2 = 2.5e-7, i.e. 0; node 4 lies in no other.
    val star = UncertainGraph.fromEdges(5, Seq(
      (0, 1, 0.9), (1, 2, 0.9), (0, 2, 0.9), (2, 3, 0.0005), (3, 4, 0.0005)))
    val p = EDS.pattern(star, Pattern.TwoStar)
    assert(p.nodes == Set(0, 1, 2))
    // Every weight 0: no instance carries signal, as with no instance at all.
    assert(EDS.clique(UncertainGraph.fromEdges(3,
      Seq((0, 1, 0.005), (1, 2, 0.005), (0, 2, 0.005))), 3).nodes.isEmpty)
  }

  test("Figure 1: max expected edge density subgraph is {A,B,C,D} at 0.375") {
    val ug = UncertainGraph.fromEdges(4, Seq((0, 1, 0.4), (0, 2, 0.4), (1, 3, 0.7)))
    val r = EDS.edge(ug)
    assert(r.nodes == Set(0, 1, 2, 3))
    assert(math.abs(r.expectedDensity - 0.375) < 1e-9)
  }

  test("Table I expected edge densities") {
    val ug = UncertainGraph.fromEdges(4, Seq((0, 1, 0.4), (0, 2, 0.4), (1, 3, 0.7)))
    val eed = (s: Set[Int]) => EDS.expectedEdgeDensity(ug, s)
    assert(math.abs(eed(Set(0, 1)) - 0.2) < 1e-9)
    assert(math.abs(eed(Set(0, 2)) - 0.2) < 1e-9)
    assert(math.abs(eed(Set(1, 3)) - 0.35) < 1e-9)
    assert(math.abs(eed(Set(0, 1, 2)) - 0.8 / 3) < 1e-9)
    assert(math.abs(eed(Set(0, 1, 3)) - 1.1 / 3) < 1e-9)
    assert(math.abs(eed(Set(0, 1, 2, 3)) - 0.375) < 1e-9)
  }

  test("probabilistic density (Eq 19) on a hand example") {
    val ug = UncertainGraph.fromEdges(3, Seq((0, 1, 0.5), (1, 2, 0.7)))
    // PD({0,1,2}) = 1.2 / C(3,2) = 0.4
    assert(math.abs(Metrics.probabilisticDensity(ug, Set(0, 1, 2)) - 0.4) < 1e-12)
    assert(math.abs(Metrics.probabilisticDensity(ug, Set(0, 1)) - 0.5) < 1e-12)
    assert(Metrics.probabilisticDensity(ug, Set(0)) == 0.0)
  }

  test("probabilistic clustering coefficient (Eq 20) on a triangle+wedge") {
    val ug = UncertainGraph.fromEdges(4,
      Seq((0, 1, 0.5), (1, 2, 0.5), (0, 2, 0.5), (2, 3, 0.8)))
    // Full set: one triangle p^3=.125; wedges: centres 0,1 (1 each: .25),
    // centre 2: pairs (0,1):.25, (0,3):.4, (1,3):.4 → total 1.55.
    val pcc = Metrics.probabilisticClusteringCoefficient(ug, Set(0, 1, 2, 3))
    assert(math.abs(pcc - 3 * 0.125 / 1.55) < 1e-9)
    // Pure triangle: 3·p³ / 3·p² = p = 0.5.
    val pccTri = Metrics.probabilisticClusteringCoefficient(ug, Set(0, 1, 2))
    assert(math.abs(pccTri - 0.5) < 1e-9)
  }

  test("purity and F1") {
    val comm = Array(0, 0, 0, 1, 1)
    assert(Metrics.purity(Set(0, 1, 2), comm) == 1.0)
    assert(math.abs(Metrics.purity(Set(0, 1, 3), comm) - 2.0 / 3) < 1e-12)
    assert(Metrics.f1(Set(1, 2), Set(1, 2)) == 1.0)
    assert(Metrics.f1(Set(1), Set(2)) == 0.0)
    assert(math.abs(Metrics.f1(Set(1, 2, 3), Set(2, 3, 4)) - 2.0 / 3) < 1e-12)
  }
}
