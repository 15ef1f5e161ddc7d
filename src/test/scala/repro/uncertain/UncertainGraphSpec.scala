package repro.uncertain

import org.scalatest.funsuite.AnyFunSuite
import repro.testkit.Check
import scala.util.Random

class UncertainGraphSpec extends AnyFunSuite {

  private def fig1 = UncertainGraph.fromEdges(4,
    Seq((0, 1, 0.4), (0, 2, 0.4), (1, 3, 0.7))) // A=0,B=1,C=2,D=3

  test("world probabilities of all masks sum to 1") {
    val rnd = new Random(5)
    for (_ <- 0 until 10) {
      val det = Check.randomGraph(rnd, 2, 6)
      val probs = Check.randomProbs(rnd, det.m)
      val ug = UncertainGraph(det.n, det.edgeU, det.edgeV, probs)
      val total = (0L until (1L << ug.m)).map(mask => ug.worldProbability(ug.worldOfMask(mask))).sum
      assert(math.abs(total - 1.0) < 1e-9)
    }
  }

  test("Figure 1 world probabilities") {
    val g = fig1
    def pOf(mask: Long) = g.worldProbability(g.worldOfMask(mask))
    assert(math.abs(pOf(0) - 0.108) < 1e-12)  // G1: no edges
    assert(math.abs(pOf(1) - 0.072) < 1e-12)  // G2: AB
    assert(math.abs(pOf(2) - 0.072) < 1e-12)  // G3: AC
    assert(math.abs(pOf(4) - 0.252) < 1e-12)  // G4: BD
    assert(math.abs(pOf(3) - 0.048) < 1e-12)  // G5: AB,AC
    assert(math.abs(pOf(5) - 0.168) < 1e-12)  // G6: AB,BD
    assert(math.abs(pOf(6) - 0.168) < 1e-12)  // G7: AC,BD
    assert(math.abs(pOf(7) - 0.112) < 1e-12)  // G8: all
  }

  test("world() builds the right possible world") {
    val g = fig1
    val w = g.world(Array(true, false, true))
    assert(w.m == 2 && w.hasEdge(0, 1) && w.hasEdge(1, 3) && !w.hasEdge(0, 2))
  }

  test("deterministic version has all edges") {
    assert(fig1.deterministic.m == 3)
  }

  test("probStats: mean/std/quartiles") {
    val g = UncertainGraph.fromEdges(3, Seq((0, 1, 0.2), (1, 2, 0.4), (0, 2, 0.6)))
    val (mean, std, (q1, q2, q3)) = g.probStats
    assert(math.abs(mean - 0.4) < 1e-12)
    assert(math.abs(std - math.sqrt(0.08 / 3)) < 1e-12)
    assert(q1 == 0.2 && q2 == 0.4 && q3 == 0.6)
  }

  test("fromEdges canonicalises and dedups") {
    val g = UncertainGraph.fromEdges(3, Seq((2, 0, 0.5), (0, 2, 0.9), (1, 2, 0.3)))
    assert(g.m == 2)
    assert(g.edgeU(0) == 0 && g.edgeV(0) == 2 && g.prob(0) == 0.5)
  }

  test("fromEdges drops self-loops") {
    val g = UncertainGraph.fromEdges(3, Seq((1, 1, 0.5), (0, 2, 0.9)))
    assert(g.m == 1 && g.edgeU(0) == 0 && g.edgeV(0) == 2)
  }

  test("the constructor rejects reversed, duplicate and out-of-range edges") {
    intercept[IllegalArgumentException](UncertainGraph(3, Array(1), Array(0), Array(0.5)))
    intercept[IllegalArgumentException](UncertainGraph(3, Array(1), Array(1), Array(0.5)))
    intercept[IllegalArgumentException](UncertainGraph(3, Array(0, 1, 0), Array(1, 2, 1), Array(0.5, 0.5, 0.5)))
    intercept[IllegalArgumentException](UncertainGraph(3, Array(0), Array(3), Array(0.5)))
    intercept[IllegalArgumentException](UncertainGraph(3, Array(-1), Array(2), Array(0.5)))
  }

  test("world(mask) equals Graph.fromEdges of the present pairs") {
    val rnd = new Random(11)
    for (_ <- 0 until 40) {
      val det = Check.randomGraph(rnd, 2, 12)
      // Edges in a shuffled order, so that the world keeps that order.
      val perm = rnd.shuffle((0 until det.m).toList).toArray
      val ug = UncertainGraph(det.n, perm.map(det.edgeU), perm.map(det.edgeV), Check.randomProbs(rnd, det.m))
      val masks = Array.fill(ug.m)(true) +: Seq.fill(5)(Array.fill(ug.m)(rnd.nextBoolean()))
      for (mask <- masks) {
        val want = repro.graph.Graph.fromEdges(ug.n, (0 until ug.m).filter(mask(_)).map(e => (ug.edgeU(e), ug.edgeV(e))))
        val got = ug.world(mask)
        assert(got.n == want.n && got.edgeU.sameElements(want.edgeU) && got.edgeV.sameElements(want.edgeV))
        assert((0 until ug.n).forall(v => got.adj(v).sameElements(want.adj(v))))
      }
      val d = ug.deterministic
      assert(d.edgeU.sameElements(ug.edgeU) && d.edgeV.sameElements(ug.edgeV))
    }
  }

  test("inducedEdges restricts to the node set") {
    val g = fig1
    assert(g.inducedEdges(Set(0, 1, 2)).toSet == Set((0, 1, 0.4), (0, 2, 0.4)))
  }

  test("probabilities outside (0,1] are rejected") {
    intercept[IllegalArgumentException] {
      UncertainGraph.fromEdges(2, Seq((0, 1, 0.0)))
    }
    intercept[IllegalArgumentException] {
      UncertainGraph.fromEdges(2, Seq((0, 1, 1.5)))
    }
  }

  test("edgeIndex finds every edge, rejects a missing one; neither it nor deterministic is serialised") {
    val rnd = new Random(17)
    val det = Check.randomGraph(rnd, 5, 9)
    // One more node than the edges reach, so {0, det.n} is not an edge.
    val g = UncertainGraph(det.n + 1, det.edgeU, det.edgeV, Check.randomProbs(rnd, det.m))
    def serialised(x: UncertainGraph): Array[Byte] = {
      val bytes = new java.io.ByteArrayOutputStream()
      val out = new java.io.ObjectOutputStream(bytes)
      out.writeObject(x)
      out.close()
      bytes.toByteArray
    }
    val before = serialised(g)
    for (i <- 0 until g.m) {
      assert(g.edgeIndex(g.edgeU(i), g.edgeV(i)) == i)
      assert(g.edgeIndex(g.edgeV(i), g.edgeU(i)) == i)
    }
    assertThrows[NoSuchElementException](g.edgeIndex(0, det.n))
    assert(g.deterministic.m == g.m)
    val after = serialised(g)
    assert(after.length == before.length)
    val copy = new java.io.ObjectInputStream(new java.io.ByteArrayInputStream(after))
      .readObject().asInstanceOf[UncertainGraph]
    assert((0 until g.m).forall(i => copy.edgeIndex(g.edgeU(i), g.edgeV(i)) == i))
    assert(copy.deterministic.m == g.m)
  }
}
