package repro.graph

import org.scalatest.funsuite.AnyFunSuite
import repro.testkit.Check

class CliquesPatternsSpec extends AnyFunSuite {

  private def bruteCliques(g: Graph, h: Int): Set[Set[Int]] =
    BruteForce.subsets(g.n)
      .filter(_.size == h)
      .filter(s => s.toSeq.combinations(2).forall { case Seq(a, b) => g.hasEdge(a, b) })
      .toSet

  test("h-clique enumeration matches brute force for h=2..5") {
    Check.forAllGraphs(30, 3, 9) { g =>
      for (h <- 2 to 5) {
        val got = Cliques.enumerate(g, h).map(_.toSet).toSet
        assert(got == bruteCliques(g, h), s"h=$h")
        // No duplicates either.
        assert(Cliques.enumerate(g, h).length == got.size)
      }
    }
  }

  test("triangle count on K5 is C(5,3)=10") {
    val k5 = Graph.fromEdges(5, for (u <- 0 until 5; v <- u + 1 until 5) yield (u, v))
    assert(Cliques.enumerate(k5, 3).length == 10)
    assert(Cliques.enumerate(k5, 4).length == 5)
    assert(Cliques.enumerate(k5, 5).length == 1)
  }

  test("pattern instance counts match closed-form brute force") {
    Check.forAllGraphs(30, 3, 9) { g =>
      assert(Pattern.TwoStar.instances(g).length == BruteForce.countTwoStars(g))
      assert(Pattern.ThreeStar.instances(g).length == BruteForce.countThreeStars(g))
      assert(Pattern.C3Star.instances(g).length == BruteForce.countPaws(g))
      assert(Pattern.Diamond.instances(g).length == BruteForce.countDiamonds(g))
    }
  }

  test("pattern instances have the declared number of distinct nodes") {
    Check.forAllGraphs(20, 3, 8) { g =>
      for (p <- Pattern.all; inst <- p.instances(g)) {
        assert(inst.length == p.numNodes && inst.distinct.length == inst.length)
        assert(inst.sorted.sameElements(inst))
      }
    }
  }

  test("groups: multiplicities sum to instance count; triangle has 3 two-stars") {
    val tri = Graph.fromEdges(3, Seq((0, 1), (1, 2), (0, 2)))
    val (sets, counts) = Pattern.groups(Pattern.TwoStar.instances(tri))
    assert(sets.length == 1 && sets(0).sameElements(Array(0, 1, 2)) && counts(0) == 3)
    Check.forAllGraphs(20, 3, 8) { g =>
      for (p <- Pattern.all) {
        val inst = p.instances(g)
        val (_, cnts) = Pattern.groups(inst)
        assert(cnts.sum == inst.length)
      }
    }
  }
}
