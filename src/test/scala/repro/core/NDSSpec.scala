package repro.core

import repro.SparkSpec
import repro.uncertain.UncertainGraph
import repro.mining.TFP
import repro.data.Datasets

class NDSSpec extends SparkSpec {

  private def fig1 = UncertainGraph.fromEdges(4,
    Seq((0, 1, 0.4), (0, 2, 0.4), (1, 3, 0.7)))

  test("transactions are maximum-sized densest subgraphs of sampled worlds") {
    val tx = NDS.transactions(spark, fig1, DensityNotion.Edge, theta = 500, seed = 37L)
    assert(tx.size == 500)
    // Possible max-sized densest subgraphs of Figure 1 worlds:
    val valid = Set(
      Set.empty[Int],       // empty world
      Set(0, 1), Set(0, 2), Set(1, 3),          // single-edge worlds
      Set(0, 1, 2), Set(0, 1, 3),               // paths
      Set(0, 1, 2, 3),                          // G7 (union) and G8
    )
    assert(tx.toSet.subsetOf(valid))
  }

  test("top NDS of Figure 1 is {B,D} and gammaHat converges to 0.7") {
    val r = NDS.run(spark, fig1, DensityNotion.Edge, k = 3, lm = 2, theta = 3000, seed = 41L)
    assert(r.topK.nonEmpty)
    val best = r.topK.head
    assert(best.nodes == Seq(1, 3))
    assert(math.abs(best.gammaHat - 0.7) < 0.03)
    assert(!r.truncated)
  }

  test("lm filters small nuclei") {
    val r = NDS.run(spark, fig1, DensityNotion.Edge, k = 5, lm = 3, theta = 500, seed = 43L)
    assert(r.topK.forall(_.nodes.size >= 3))
  }

  test("gammaHat of TFP equals the estimateGamma of the same node set") {
    val theta = 1500
    val tx = NDS.transactions(spark, fig1, DensityNotion.Edge, theta, seed = 47L)
    val viaTx = TFP.gammaHat(tx, Set(1, 3))
    val viaEstimate = MPDS.estimateGamma(spark, fig1, DensityNotion.Edge,
      Seq(Set(1, 3)), theta, seed = 47L).head
    assert(math.abs(viaTx - viaEstimate) < 1e-12)
  }

  test("heuristic NDS returns a reasonable nucleus on karate") {
    val ug = Datasets.karate()
    val approx = NDS.run(spark, ug, DensityNotion.Edge, k = 1, lm = 2, theta = 100, seed = 53L)
    val heur = NDS.run(spark, ug, DensityNotion.Edge, k = 1, lm = 2, theta = 100,
      seed = 53L, heuristic = true)
    assert(approx.topK.nonEmpty && heur.topK.nonEmpty)
    // Heuristic quality should be within a reasonable factor of approximate.
    assert(heur.topK.head.gammaHat >= approx.topK.head.gammaHat * 0.3)
  }

  test("3-clique NDS on a graph with one dominant triangle") {
    val ug = UncertainGraph.fromEdges(5, Seq(
      (0, 1, 0.9), (1, 2, 0.9), (0, 2, 0.9),
      (2, 3, 0.3), (3, 4, 0.3), (2, 4, 0.3),
    ))
    val r = NDS.run(spark, ug, DensityNotion.Clique(3), k = 1, lm = 3, theta = 800, seed = 59L)
    assert(r.topK.head.nodes == Seq(0, 1, 2))
    // gamma({0,1,2}) = Pr[triangle alive] = 0.729.
    assert(math.abs(r.topK.head.gammaHat - 0.729) < 0.05)
  }
}
