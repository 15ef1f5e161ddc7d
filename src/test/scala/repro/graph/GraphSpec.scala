package repro.graph

import org.scalatest.funsuite.AnyFunSuite
import repro.core.DensityNotion
import repro.testkit.Check

class GraphSpec extends AnyFunSuite {

  test("fromEdges dedups, drops self-loops, canonicalises") {
    val g = Graph.fromEdges(4, Seq((1, 0), (0, 1), (2, 2), (3, 2)))
    assert(g.m == 2)
    assert(g.hasEdge(0, 1) && g.hasEdge(1, 0))
    assert(g.hasEdge(2, 3) && !g.hasEdge(0, 2))
    assert(g.degree(2) == 1 && g.degree(0) == 1)
  }

  test("edge density of triangle is 1") {
    val g = Graph.fromEdges(3, Seq((0, 1), (1, 2), (0, 2)))
    assert(DensityNotion.Edge.densityOf(g, Set(0, 1, 2)) == ((3L, 3L)))
  }

  test("empty graph has zero density and no edges") {
    val g = Graph.fromEdges(3, Seq.empty)
    assert(g.m == 0 && DensityNotion.Edge.densityOf(g, Set(0, 1, 2)) == ((0L, 3L)))
  }

  test("adjacency is sorted and symmetric") {
    Check.forAllGraphs(30, 2, 12) { g =>
      for (v <- 0 until g.n) {
        assert(g.adj(v).sorted.sameElements(g.adj(v)))
        for (w <- g.adj(v)) assert(g.adj(w).contains(v))
      }
      assert(g.adj.map(_.length).sum == 2 * g.m)
    }
  }
}
