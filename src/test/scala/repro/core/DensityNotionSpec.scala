package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.graph.{BruteForce, Graph, Pattern}
import repro.testkit.Check

class DensityNotionSpec extends AnyFunSuite {

  private val notions = Seq[DensityNotion](
    DensityNotion.Edge, DensityNotion.Clique(3), DensityNotion.Clique(4),
    DensityNotion.Pat(Pattern.TwoStar), DensityNotion.Pat(Pattern.Diamond))

  test("instances of G[U] are the instances of G inside U") {
    val all = notions ++ Seq(DensityNotion.Pat(Pattern.ThreeStar), DensityNotion.Pat(Pattern.C3Star))
    // Clique orientation and c3-star's triangles follow each graph's own
    // peel order, so only these notions list the instances in the same order.
    val sameOrder = Set("edge", "2-star", "3-star", "diamond")
    def multiset(xs: Seq[Seq[Int]]) = xs.groupMapReduce(identity)(_ => 1)(_ + _)
    val rnd = new scala.util.Random(88)
    Check.forAllGraphs(40, 3, 10) { g =>
      val inU = Array.fill(g.n)(rnd.nextDouble() < 0.7)
      val sub = Graph.fromEdges(g.n, (0 until g.m).map(e => (g.edgeU(e), g.edgeV(e)))
        .filter { case (u, v) => inU(u) && inU(v) })
      for (n <- all) {
        val inside = n.instances(g).toSeq.filter(_.forall(inU)).map(_.toSeq)
        val ofSub = n.instances(sub).toSeq.map(_.toSeq)
        assert(multiset(inside) == multiset(ofSub), n.name)
        if (sameOrder(n.name)) assert(inside == ofSub, n.name)
      }
    }
  }

  test("densityOf equals instance count over size") {
    Check.forAllGraphs(20, 3, 8) { g =>
      for (n <- notions; s <- Seq(Set(0, 1), (0 until g.n).toSet)) {
        val (num, den) = n.densityOf(g, s)
        assert(den == s.size.toLong)
        assert(num == BruteForce.instancesInside(n.instances(g), s).toLong)
      }
    }
  }

  test("allDensest density equals the best brute-force density for every notion") {
    Check.forAllGraphs(15, 3, 7) { g =>
      for (n <- notions) {
        val w = n.allDensest(g, Int.MaxValue)
        val (bn, bd, all) = BruteForce.allInstanceDensest(g.n, n.instances(g))
        assert(w.num == bn && w.den == bd, n.name)
        assert(w.all.map(_.toSet).toSet == all, n.name)
      }
    }
  }

  test("heuristicDense returns non-empty dense subgraphs when instances exist") {
    Check.forAllGraphs(15, 4, 8) { g =>
      for (n <- notions) {
        val nucleus = n.heuristicDense(g)
        assert(nucleus.toSeq == nucleus.sorted.distinct.toSeq, n.name)
        if (n.instances(g).nonEmpty) {
          assert(nucleus.nonEmpty, n.name)
          // The nucleus achieves at least 1/|V_psi| of the optimum density
          // (the §III-C guarantee): ρ(nucleus) ≥ ρ(C_kMax) ≥ kMax/q ≥ ρ*/q.
          val w = n.allDensest(g, 1)
          val q = n.instances(g).head.length
          val (num, den) = n.densityOf(g, nucleus.toSet)
          assert(num * q * w.den >= w.num * den,
            s"${n.name}: heuristic $num/$den vs optimum ${w.num}/${w.den}")
        } else assert(nucleus.isEmpty, n.name)
      }
    }
  }

  test("names are stable identifiers") {
    assert(DensityNotion.Edge.name == "edge")
    assert(DensityNotion.Clique(3).name == "3-clique")
    assert(DensityNotion.Pat(Pattern.Diamond).name == "diamond")
  }

  test("empty graph yields empty worlds for every notion") {
    val g = Graph.fromEdges(5, Seq.empty)
    for (n <- notions) {
      val w = n.allDensest(g, 10)
      assert(w.all.isEmpty && w.maxSized.isEmpty && w.num == 0)
    }
  }
}
