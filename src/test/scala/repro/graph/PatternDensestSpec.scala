package repro.graph

import org.scalatest.funsuite.AnyFunSuite
import repro.core.DensityNotion.Pat
import repro.testkit.Check

class PatternDensestSpec extends AnyFunSuite {

  for (p <- Pattern.all) {
    test(s"all ${p.name}-densest subgraphs match brute force") {
      Check.forAllGraphs(35, 3, 8, seed = p.name.hashCode.toLong) { g =>
        val inst = p.instances(g)
        val (bn, bd, all) = BruteForce.allInstanceDensest(g.n, inst)
        val r = Pat(p).allDensest(g, Int.MaxValue)
        assert(r.num == bn && r.den == bd,
          s"${p.name}: got ${r.num}/${r.den} want $bn/$bd")
        assert(r.all.map(_.toSet).toSet == all, s"${p.name}: family mismatch")
        assert(Pat(p).family(g).sets().map(_.toSeq).toSeq == r.all.map(_.toSeq), s"${p.name}: sets() order")
        assert(r.maxSized.toSet == all.flatten)
      }
    }
  }

  test("star pattern on a star graph: whole star is densest") {
    val star = Graph.fromEdges(5, Seq((0, 1), (0, 2), (0, 3), (0, 4)))
    val r = Pat(Pattern.ThreeStar).allDensest(star, Int.MaxValue)
    // C(4,3)=4 three-stars over 5 nodes beats any sub-star.
    assert(r.num == 4 && r.den == 5)
    assert(r.all.map(_.toSet) == Seq(Set(0, 1, 2, 3, 4)))
  }

  test("diamond-free graph has no diamond-densest subgraph") {
    val tree = Graph.fromEdges(5, Seq((0, 1), (1, 2), (2, 3), (3, 4)))
    val r = Pat(Pattern.Diamond).allDensest(tree, Int.MaxValue)
    assert(r.all.isEmpty)
  }

  test("K4: one diamond-densest subgraph = K4 itself") {
    val k4 = Graph.fromEdges(4, for (u <- 0 until 4; v <- u + 1 until 4) yield (u, v))
    val r = Pat(Pattern.Diamond).allDensest(k4, Int.MaxValue)
    // 6 diamond instances on 4 nodes (reduced to lowest terms: 3/2).
    assert(r.num == 3 && r.den == 2)
    assert(r.all.map(_.toSet) == Seq(Set(0, 1, 2, 3)))
  }
}
