package repro.uncertain

import repro.graph.Cliques

/** External evaluation metrics of §VI: probabilistic density (Eq. 19),
  * probabilistic clustering coefficient (Eq. 20), purity (§VI-E) and
  * F1-score (§VI-H).
  */
object Metrics {

  /** PD(U) = Σ_{e in E_U} p(e) / C(|V_U|, 2)  (Equation 19). */
  def probabilisticDensity(g: UncertainGraph, nodes: Set[Int]): Double = {
    val k = nodes.size
    if (k < 2) return 0.0
    val sum = (0 until g.m).collect {
      case i if nodes.contains(g.edgeU(i)) && nodes.contains(g.edgeV(i)) => g.prob(i)
    }.sum
    sum / (0.5 * k * (k - 1))
  }

  /** PCC(U) = 3 Σ_triangles p·p·p / Σ_wedges p·p  (Equation 20). */
  def probabilisticClusteringCoefficient(g: UncertainGraph, nodes: Set[Int]): Double = {
    val sub = UncertainGraph.fromEdges(g.n, g.inducedEdges(nodes))
    val det = sub.deterministic
    def p(u: Int, v: Int): Double = sub.prob(sub.edgeIndex(u, v))
    var triSum = 0.0
    for (t <- Cliques.enumerate(det, 3))
      triSum += p(t(0), t(1)) * p(t(1), t(2)) * p(t(0), t(2))
    var wedgeSum = 0.0
    for (c <- 0 until det.n) {
      val nb = det.adj(c)
      for (i <- nb.indices; j <- i + 1 until nb.length)
        wedgeSum += p(c, nb(i)) * p(c, nb(j))
    }
    if (wedgeSum == 0.0) 0.0 else 3.0 * triSum / wedgeSum
  }

  /** Purity: largest fraction of U's nodes sharing a ground-truth label. */
  def purity(nodes: Set[Int], community: Array[Int]): Double =
    if (nodes.isEmpty) 0.0
    else nodes.groupBy(community).values.map(_.size).max.toDouble / nodes.size

  /** F1-score of a returned set vs. a ground-truth set. */
  def f1(got: Set[Int], truth: Set[Int]): Double = {
    if (got.isEmpty || truth.isEmpty) return 0.0
    val tp = (got intersect truth).size.toDouble
    if (tp == 0) return 0.0
    val precision = tp / got.size
    val recall = tp / truth.size
    2 * precision * recall / (precision + recall)
  }
}
