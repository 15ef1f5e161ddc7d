package repro.graph

import org.scalatest.funsuite.AnyFunSuite
import repro.core.DensityNotion.Edge
import repro.testkit.Check

class EdgeDensestSpec extends AnyFunSuite {

  test("maxDensity matches brute force") {
    Check.forAllGraphs(60, 3, 9) { g =>
      val edges = Edge.instances(g)
      val opt = Densest.maxDensity(edges, Array.fill(edges.length)(1L), (0 until g.n).toArray)
      val (a, b, witness) = (opt.num, opt.den, opt.witness)
      val (bn, bd, _) = BruteForce.allEdgeDensest(g)
      assert(a == bn && b == bd, s"got $a/$b expected $bn/$bd")
      if (g.m > 0) {
        val s = witness.toSet
        assert(BruteForce.edgesInside(g, s).toLong * b == a * s.size.toLong)
      }
    }
  }

  test("allDensest enumerates exactly the brute-force densest family") {
    Check.forAllGraphs(60, 3, 9) { g =>
      val r = Edge.allDensest(g, Int.MaxValue)
      val (bn, bd, all) = BruteForce.allEdgeDensest(g)
      assert(r.num == bn && r.den == bd)
      assert(!r.capped)
      val got = r.all.map(_.toSet).toSet
      assert(got == all, s"got ${got.size} sets, expected ${all.size}")
      assert(r.all.size == got.size, "no duplicate enumeration")
      // The family lists the same sets in the same order, as often as asked.
      val f = Edge.family(g)
      assert(f.sets().map(_.toSeq).toSeq == r.all.map(_.toSeq))
      assert(f.sets().map(_.toSeq).toSeq == r.all.map(_.toSeq), "a second sets() differs")
    }
  }

  test("maxSized equals the union of all densest subgraphs") {
    Check.forAllGraphs(40, 3, 9) { g =>
      val r = Edge.allDensest(g, Int.MaxValue)
      val (_, _, all) = BruteForce.allEdgeDensest(g)
      assert(r.maxSized.toSet == all.flatten)
    }
  }

  test("empty world: no densest subgraph (Table I convention)") {
    val g = Graph.fromEdges(4, Seq.empty)
    val r = Edge.allDensest(g, Int.MaxValue)
    assert(r.all.isEmpty && r.maxSized.isEmpty && r.num == 0)
  }

  test("single edge: the two endpoints are the unique densest subgraph") {
    val g = Graph.fromEdges(4, Seq((1, 3)))
    val r = Edge.allDensest(g, Int.MaxValue)
    assert(r.num == 1 && r.den == 2)
    assert(r.all.map(_.toSeq) == Seq(Seq(1, 3)))
  }

  test("two disjoint triangles: three densest subgraphs (each and their union)") {
    val g = Graph.fromEdges(6, Seq((0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)))
    val r = Edge.allDensest(g, Int.MaxValue)
    assert(r.num == 1 && r.den == 1)
    val got = r.all.map(_.toSet).toSet
    assert(got == Set(Set(0, 1, 2), Set(3, 4, 5), Set(0, 1, 2, 3, 4, 5)))
    assert(r.maxSized.toSet == Set(0, 1, 2, 3, 4, 5))
  }

  test("result cap stops enumeration and reports capped") {
    val g = Graph.fromEdges(6, Seq((0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)))
    val r = Edge.allDensest(g, 2)
    assert(r.capped && r.all.size == 2)
  }

  test("capped means truncated: a family of exactly cap sets is not capped") {
    val single = Graph.fromEdges(2, Seq((0, 1)))
    val one = Edge.allDensest(single, 1)
    assert(!one.capped && one.all.size == 1)
    // Two disjoint triangles have three densest subgraphs.
    val g = Graph.fromEdges(6, Seq((0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)))
    val exact = Edge.allDensest(g, 3)
    assert(!exact.capped && exact.all.size == 3)
    val over = Edge.allDensest(g, 2)
    assert(over.capped && over.all.map(_.toSeq) == exact.all.take(2).map(_.toSeq))
  }

  test("40 disjoint edges: the family's first sets come without listing its 2^40 - 1") {
    val g = Graph.fromEdges(80, (0 until 80 by 2).map(v => (v, v + 1)))
    val f = Edge.family(g)
    assert(f.num == 1 && f.den == 2 && f.maxSized.sameElements(0 until 80))
    assert(f.sets().take(3).map(_.toSeq).toSeq == Edge.allDensest(g, 3).all.map(_.toSeq))
  }

  test("paper Figure 1 worlds: densest families as in Table I") {
    // World G6 = {AB, BD}: densest is {A,B,D} (density 2/3).
    val g6 = Graph.fromEdges(4, Seq((0, 1), (1, 3)))
    assert(Edge.allDensest(g6, Int.MaxValue).all.map(_.toSet) == Seq(Set(0, 1, 3)))
    // World G8 = {AB, AC, BD}: densest is {A,B,C,D} (density 3/4).
    val g8 = Graph.fromEdges(4, Seq((0, 1), (0, 2), (1, 3)))
    assert(Edge.allDensest(g8, Int.MaxValue).all.map(_.toSet) == Seq(Set(0, 1, 2, 3)))
    // World G4 = {BD} only: densest is {B,D}.
    val g4 = Graph.fromEdges(4, Seq((1, 3)))
    assert(Edge.allDensest(g4, Int.MaxValue).all.map(_.toSet) == Seq(Set(1, 3)))
  }

  test("a 5000-node path world is solved on a 256 KiB stack") {
    // The path is its own unique densest subgraph, of density 4999/5000.
    val n = 5000
    val path = Graph.fromEdges(n, (0 until n - 1).map(v => (v, v + 1)))
    var result: Either[Throwable, Densest.World] = null
    val worker = new Thread(null, () => {
      result = try Right(Edge.allDensest(path, 4096)) catch { case e: Throwable => Left(e) }
    }, "path-world", 256L * 1024)
    worker.start()
    worker.join()
    val r = result.fold(e => fail("the path world failed on a 256 KiB stack", e), identity)
    assert(r.num == n - 1 && r.den == n)
    assert(!r.capped && r.all.size == 1)
    assert(r.all.head.sameElements(0 until n) && r.maxSized.sameElements(0 until n))
  }

  test("2500 equally dense components are enumerated on a 256 KiB stack") {
    // Every union of the edges is densest, and the enumeration first takes
    // them one by one, 2500 deep; past the cap it stops.
    val n = 5000
    val edges = Graph.fromEdges(n, (0 until n by 2).map(v => (v, v + 1)))
    var result: Either[Throwable, Densest.World] = null
    val worker = new Thread(null, () => {
      result = try Right(Edge.allDensest(edges, 4096)) catch { case e: Throwable => Left(e) }
    }, "disjoint-edges", 256L * 1024)
    worker.start()
    worker.join()
    val r = result.fold(e => fail("2500 disjoint edges failed on a 256 KiB stack", e), identity)
    assert(r.num == 1 && r.den == 2 && r.capped && r.all.size == 4096)
    assert(r.all(n / 2 - 1).length == n && r.maxSized.sameElements(0 until n))
  }
}
