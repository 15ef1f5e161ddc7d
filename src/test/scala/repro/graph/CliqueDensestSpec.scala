package repro.graph

import org.scalatest.funsuite.AnyFunSuite
import repro.core.DensityNotion.{Clique, Edge}
import repro.testkit.Check

class CliqueDensestSpec extends AnyFunSuite {

  test("h=2 clique-densest coincides with edge-densest") {
    Check.forAllGraphs(40, 3, 9) { g =>
      val ce = Clique(2).allDensest(g, Int.MaxValue)
      val ee = Edge.allDensest(g, Int.MaxValue)
      assert(ce.num == ee.num && ce.den == ee.den)
      assert(ce.all.map(_.toSet).toSet == ee.all.map(_.toSet).toSet)
      assert(ce.maxSized.toSet == ee.maxSized.toSet)
    }
  }

  test("h=3 all clique-densest matches brute force") {
    Check.forAllGraphs(50, 3, 9) { g =>
      val inst = Cliques.enumerate(g, 3)
      val (bn, bd, all) = BruteForce.allInstanceDensest(g.n, inst)
      val r = Clique(3).allDensest(g, Int.MaxValue)
      assert(r.num == bn && r.den == bd, s"got ${r.num}/${r.den} want $bn/$bd")
      assert(r.all.map(_.toSet).toSet == all)
      assert(r.maxSized.toSet == all.flatten)
    }
  }

  test("h=4 all clique-densest matches brute force") {
    Check.forAllGraphs(30, 4, 8) { g =>
      val inst = Cliques.enumerate(g, 4)
      val (bn, bd, all) = BruteForce.allInstanceDensest(g.n, inst)
      val r = Clique(4).allDensest(g, Int.MaxValue)
      assert(r.num == bn && r.den == bd)
      assert(r.all.map(_.toSet).toSet == all)
    }
  }

  test("triangle-free graph has no 3-clique densest subgraph") {
    val c4 = Graph.fromEdges(4, Seq((0, 1), (1, 2), (2, 3), (3, 0)))
    val r = Clique(3).allDensest(c4, Int.MaxValue)
    assert(r.all.isEmpty && r.num == 0)
  }

  test("paper Example 5 shape: two triangles joined by an edge") {
    // {A,B,C} and {D,E,F} triangles plus edge C-D: rho*_3 = 1/3; densest
    // families are each triangle and their union (cf. Figure 4).
    val g = Graph.fromEdges(6,
      Seq((0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (2, 3)))
    val r = Clique(3).allDensest(g, Int.MaxValue)
    assert(r.num == 1 && r.den == 3)
    val got = r.all.map(_.toSet).toSet
    assert(got.contains(Set(0, 1, 2)) && got.contains(Set(3, 4, 5)))
    assert(r.maxSized.toSet == Set(0, 1, 2, 3, 4, 5))
  }
}
