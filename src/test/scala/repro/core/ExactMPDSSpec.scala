package repro.core

import repro.SparkSpec
import repro.uncertain.UncertainGraph
import repro.graph.BruteForce
import repro.testkit.Check
import scala.util.Random

class ExactMPDSSpec extends SparkSpec {

  private def fig1 = UncertainGraph.fromEdges(4,
    Seq((0, 1, 0.4), (0, 2, 0.4), (1, 3, 0.7))) // A=0,B=1,C=2,D=3

  /** Exact τ per node set, keyed by its sorted ids. */
  private def exactTau(g: UncertainGraph): Map[Seq[Int], Double] =
    ExactMPDS.topK(spark, g, DensityNotion.Edge, Int.MaxValue).map(c => c.nodes -> c.tau).toMap

  test("Table I: exact densest subgraph probabilities of the Figure 1 graph") {
    val tau = exactTau(fig1)
    def t(s: Int*) = tau.getOrElse(s, 0.0)
    assert(math.abs(t(0, 1) - 0.072) < 1e-9)       // {A,B}  = 0.07
    assert(math.abs(t(0, 2) - 0.24) < 1e-9)        // {A,C}  = 0.24
    assert(math.abs(t(1, 3) - 0.42) < 1e-9)        // {B,D}  = 0.42
    assert(math.abs(t(0, 1, 2) - 0.048) < 1e-9)    // {A,B,C} = 0.05
    assert(math.abs(t(0, 1, 3) - 0.168) < 1e-9)    // {A,B,D} = 0.17
    assert(math.abs(t(0, 1, 2, 3) - 0.28) < 1e-9)  // {A,B,C,D} = 0.28
  }

  test("Table I: the MPDS is {B,D} with tau = 0.42") {
    val top = ExactMPDS.topK(spark, fig1, DensityNotion.Edge, 1)
    assert(top.head.nodes == Seq(1, 3))
    assert(math.abs(top.head.tau - 0.42) < 1e-9)
  }

  test("Example 3: gamma({B,D}) = 0.7") {
    val g = ExactMPDS.gammaOf(spark, fig1, DensityNotion.Edge, Set(1, 3))
    assert(math.abs(g - 0.7) < 1e-9)
  }

  test("gammaOf is the Pr(world) sum over the worlds whose maximum-sized densest subgraph holds U") {
    val rnd = new Random(103)
    val graphs = fig1 +: Seq.fill(3) {
      val det = Check.randomGraph(rnd, 4, 5) // m <= 10
      UncertainGraph(det.n, det.edgeU, det.edgeV, Check.randomProbs(rnd, det.m))
    }
    for (g <- graphs; u <- Seq(Set(1, 3), Set(0), Set(0, 1, 2), Set.empty[Int])) {
      val want = (0L until (1L << g.m)).map { mask =>
        val present = g.worldOfMask(mask)
        val world = g.world(present)
        if (MPDS.contained(world, DensityNotion.Edge.family(world), u)) g.worldProbability(present) else 0.0
      }.sum
      // Only the order of the sum differs.
      assert(math.abs(ExactMPDS.gammaOf(spark, g, DensityNotion.Edge, u) - want) < 1e-12, s"$u")
    }
  }

  test("exact tau matches a driver-side brute force on random graphs") {
    val rnd = new Random(101)
    for (_ <- 0 until 5) {
      val det = Check.randomGraph(rnd, 3, 5)
      if (det.m > 0 && det.m <= 8) {
        val ug = UncertainGraph(det.n, det.edgeU, det.edgeV, Check.randomProbs(rnd, det.m))
        // Driver-side brute force: enumerate worlds, brute densest families.
        val brute = collection.mutable.Map.empty[Seq[Int], Double].withDefaultValue(0.0)
        for (mask <- 0L until (1L << ug.m)) {
          val present = ug.worldOfMask(mask)
          val pr = ug.worldProbability(present)
          val world = ug.world(present)
          val (_, _, all) = BruteForce.allEdgeDensest(world)
          for (s <- all) brute(s.toSeq.sorted) += pr
        }
        val got = exactTau(ug)
        assert(got.keySet == brute.keySet)
        for ((k, v) <- brute) assert(math.abs(got(k) - v) < 1e-9, s"set $k")
      }
    }
  }

  test("exact tau values sum to <= 1 per density notion (worlds may credit many sets)") {
    // Each world distributes its probability to every densest subgraph, so
    // the sum over sets equals E[#densest subgraphs] >= total world mass
    // with at least one edge.
    val tau = ExactMPDS.topK(spark, fig1, DensityNotion.Edge, Int.MaxValue).map(_.tau).sum
    // Worlds G2..G8 have mass 0.892; G7 credits 3 sets (adds 2*0.168).
    assert(math.abs(tau - (0.892 + 2 * 0.168)) < 1e-9)
  }

  test("exact 3-clique MPDS on a small graph with a high-probability triangle") {
    val ug = UncertainGraph.fromEdges(5, Seq(
      (0, 1, 0.9), (1, 2, 0.9), (0, 2, 0.9), // strong triangle
      (2, 3, 0.5), (3, 4, 0.5), (2, 4, 0.5), // weak triangle
    ))
    val top = ExactMPDS.topK(spark, ug, DensityNotion.Clique(3), 1)
    assert(top.head.nodes == Seq(0, 1, 2))
    // {0,1,2} is densest iff it exists and the weak triangle is not fully
    // alive (if both live, the union has density 2/5 > 1/3):
    // tau = 0.9^3 * (1 - 0.5^3) = 0.637875.
    assert(math.abs(top.head.tau - 0.729 * 0.875) < 1e-9)
  }
}
