package repro.uncertain

import scala.collection.mutable

/** (k, γ)-truss decomposition of an uncertain graph (Huang et al. [41]) —
  * baseline for Tables III–VI. An edge's γ-support is the largest s with
  * p(e) · Pr[e participates in >= s triangles] >= γ, where a triangle over
  * e = (u,v) with apex w exists iff both (u,w) and (v,w) exist (treated
  * independently across apexes, as in the peeling implementation of [41]).
  * The (k,γ)-truss keeps edges whose γ-support within it is >= k−2.
  */
object UncertainTruss {

  /** γ-truss number per edge id (k value; >= 2 for any surviving edge). */
  def trussNumbers(g: UncertainGraph, gamma: Double): Array[Int] = {
    val det = g.deterministic
    def p(u: Int, v: Int): Double = g.prob(g.edgeIndex(u, v))

    val alive = Array.fill(g.m)(true)

    def gammaSupport(e: Int): Int = {
      val u = g.edgeU(e); val v = g.edgeV(e)
      val apexProbs = det.adj(u).iterator
        .filter(w => w != v && det.hasEdge(v, w) && alive(g.edgeIndex(u, w)) && alive(g.edgeIndex(v, w)))
        .map(w => p(u, w) * p(v, w))
        .toArray
      val pe = g.prob(e)
      if (pe < gamma) return 0
      // Largest s with pe * Pr[support >= s] >= gamma.
      val d = PoissonBinomial.pmf(apexProbs)
      var tail = 0.0
      var s = apexProbs.length
      while (s >= 1) {
        tail += d(s)
        if (pe * tail >= gamma) return s
        s -= 1
      }
      0
    }

    val truss = new Array[Int](g.m)
    val sup = Array.tabulate(g.m)(gammaSupport)
    var k = 2
    var remaining = g.m
    while (remaining > 0) {
      val queue = mutable.Queue((0 until g.m).filter(e => alive(e) && sup(e) <= k - 2): _*)
      if (queue.isEmpty) k += 1
      else {
        while (queue.nonEmpty) {
          val e = queue.dequeue()
          if (alive(e)) {
            alive(e) = false
            truss(e) = k
            remaining -= 1
            // Recompute supports of edges sharing a triangle with e.
            val u = g.edgeU(e); val v = g.edgeV(e)
            for (w <- det.adj(u); if w != v && det.hasEdge(v, w)) {
              for (f <- Seq(g.edgeIndex(u, w), g.edgeIndex(v, w)); if alive(f)) {
                sup(f) = gammaSupport(f)
                if (sup(f) <= k - 2) queue.enqueue(f)
              }
            }
          }
        }
      }
    }
    truss
  }

  /** Node set of the innermost γ-truss (edges with maximal truss number). */
  def innermostTruss(g: UncertainGraph, gamma: Double): Set[Int] = {
    if (g.m == 0) return Set.empty
    val truss = trussNumbers(g, gamma)
    val kMax = truss.max
    (0 until g.m).filter(truss(_) == kMax)
      .flatMap(e => Seq(g.edgeU(e), g.edgeV(e))).toSet
  }
}
