package repro.graph

import org.scalatest.funsuite.AnyFunSuite
import repro.testkit.Check

class HyperPeelingSpec extends AnyFunSuite {

  private def edgeInstances(g: Graph): Array[Array[Int]] =
    Array.tabulate(g.m)(i => Array(g.edgeU(i), g.edgeV(i)))

  test("edge core numbers match brute-force k-core fixpoint") {
    Check.forAllGraphs(40, 3, 9) { g =>
      val pr = HyperPeeling.peel(g.n, edgeInstances(g))
      val kMax = pr.kMax
      for (k <- 0 to kMax + 1) {
        val expected = BruteForce.instanceCore(g.n, edgeInstances(g), k)
        val got = (0 until g.n).filter(pr.coreAtLeast(k)(_)).toSet
        assert(got == expected, s"k=$k")
      }
    }
  }

  test("clique core numbers match brute-force (k,h)-core fixpoint") {
    Check.forAllGraphs(25, 3, 8) { g =>
      for (h <- 3 to 4) {
        val inst = Cliques.enumerate(g, h)
        val pr = HyperPeeling.peel(g.n, inst)
        for (k <- 0 to pr.kMax + 1) {
          val expected = BruteForce.instanceCore(g.n, inst, k)
          val got = (0 until g.n).filter(pr.coreAtLeast(k)(_)).toSet
          assert(got == expected, s"h=$h k=$k")
        }
      }
    }
  }

  test("edge peel kMax equals brute-force max-min-degree") {
    Check.forAllGraphs(40, 3, 8) { g =>
      val brute = BruteForce.subsets(g.n).map(s => s.map(v => g.adj(v).count(s.contains)).min).max
      assert(HyperPeeling.peel(g.n, edgeInstances(g)).kMax == brute)
    }
  }

  test("peel best density is a lower bound on (and at least half of) the optimum") {
    Check.forAllGraphs(30, 3, 9) { g =>
      val pr = HyperPeeling.peel(g.n, edgeInstances(g))
      val (pn, pd) = pr.bestDensity
      val (bn, bd, _) = BruteForce.allEdgeDensest(g)
      assert(pn * bd <= bn * pd, "peel density must not exceed optimum")
      // Charikar's 1/2-approximation guarantee for edge density.
      assert(2 * pn * bd >= bn * pd, "peel density must be >= optimum/2")
    }
  }

  test("bestSuffixNodes achieves bestDensity") {
    Check.forAllGraphs(30, 3, 9) { g =>
      val pr = HyperPeeling.peel(g.n, edgeInstances(g))
      val (pn, pd) = pr.bestDensity
      val keep = pr.bestSuffixNodes
      val s = (0 until g.n).filter(keep(_)).toSet
      val e = BruteForce.edgesInside(g, s)
      assert(e.toLong * pd == pn * s.size.toLong)
    }
  }

  test("suffixInstances is the live instance count before each removal") {
    val g = Graph.fromEdges(4, Seq((0, 1), (1, 2), (0, 2), (2, 3)))
    val pr = HyperPeeling.peel(g.n, edgeInstances(g))
    assert(pr.suffixInstances(0) == 4)
    assert(pr.order(0) == 3) // unique min-degree node first
    assert(pr.suffixInstances(1) == 3) // triangle remains
  }

  test("heuristicDenseSubgraphs contains the innermost core and denser suffixes") {
    Check.forAllGraphs(20, 3, 9) { g =>
      val pr = HyperPeeling.peel(g.n, edgeInstances(g))
      val subs = pr.heuristicDenseSubgraphs
      assert(subs.nonEmpty)
      val inner = pr.innermost
      assert(subs.exists(_.sameElements(inner)))
    }
  }

  /** O(n²) reference: each step removes the live node of least current
    * degree, the least id among equals.
    */
  private def referencePeel(n: Int, inst: Array[Array[Int]]): (Seq[Int], Seq[Int], Seq[Long]) = {
    val alive = Array.fill(inst.length)(true)
    val removed = new Array[Boolean](n)
    def deg(v: Int) = inst.indices.count(i => alive(i) && inst(i).contains(v))
    var core = 0
    val coreNumber = new Array[Int](n)
    val steps = for (_ <- 0 until n) yield {
      val v = (0 until n).filterNot(removed).minBy(v => (deg(v), v))
      val live = alive.count(identity).toLong
      core = math.max(core, deg(v))
      coreNumber(v) = core
      removed(v) = true
      for (i <- inst.indices; if inst(i).contains(v)) alive(i) = false
      (v, live)
    }
    (steps.map(_._1), coreNumber.toSeq, steps.map(_._2))
  }

  test("peel order is least current degree, then least id (edges and 3-cliques, isolated nodes)") {
    val rnd = new scala.util.Random(41)
    Check.forAllGraphs(40, 3, 10) { g0 =>
      // Spread the nodes over a larger id range, so that isolated nodes sit between them.
      val n = g0.n + 1 + rnd.nextInt(5)
      val id = rnd.shuffle((0 until n).toList).take(g0.n).toArray
      val g = Graph.fromEdges(n, (0 until g0.m).map(e => (id(g0.edgeU(e)), id(g0.edgeV(e)))))
      for (inst <- Seq(edgeInstances(g), Cliques.enumerate(g, 3))) {
        val pr = HyperPeeling.peel(g.n, inst)
        val (order, coreNumber, suffix) = referencePeel(g.n, inst)
        assert(pr.order.toSeq == order)
        assert(pr.coreNumber.toSeq == coreNumber)
        assert(pr.suffixInstances.toSeq == suffix)
      }
    }
  }

  test("empty instance list: all core numbers zero, density zero") {
    val pr = HyperPeeling.peel(5, Array.empty)
    assert(pr.kMax == 0 && pr.bestDensity == ((0L, 1L)))
  }
}
