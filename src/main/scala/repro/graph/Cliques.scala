package repro.graph

import scala.collection.mutable

/** h-clique enumeration via degeneracy orientation (the standard kClist
  * scheme of Danisch et al. [55], which the paper uses for Algorithm 2
  * line 3). Cliques are emitted as sorted node-id arrays.
  */
object Cliques {

  /** All h-cliques of `g` (h >= 1). For h=1 returns singleton nodes, for
    * h=2 the edges — matching the paper's "a 2-clique is an edge".
    */
  def enumerate(g: Graph, h: Int): Array[Array[Int]] = {
    require(h >= 1, s"h must be >= 1, got $h")
    if (h == 1) return Array.tabulate(g.n)(v => Array(v))
    if (h == 2) return Array.tabulate(g.m)(i => Array(g.edgeU(i), g.edgeV(i)))
    // Orient every edge from lower to higher position in the edge peel's
    // min-degree removal order, a degeneracy order: each node's
    // out-neighbourhood then has size <= degeneracy.
    val order = HyperPeeling.peel(g.n, enumerate(g, 2)).order
    val pos = new Array[Int](g.n)
    for (k <- order.indices) pos(order(k)) = k
    val out = Array.tabulate(g.n)(v => g.adj(v).filter(w => pos(w) > pos(v)))
    val results = mutable.ArrayBuffer.empty[Array[Int]]
    val clique = new Array[Int](h)

    def extend(depth: Int, cands: Array[Int]): Unit = {
      if (depth == h) { results += clique.clone().sorted; return }
      var i = 0
      while (i < cands.length) {
        val v = cands(i)
        clique(depth) = v
        if (depth == h - 1) results += clique.clone().sorted
        else {
          // Next candidates: out-neighbours of v that are adjacent to v and
          // already in cands (intersection keeps the orientation invariant).
          val next = cands.filter(w => pos(w) > pos(v) && g.hasEdge(v, w))
          extend(depth + 1, next)
        }
        i += 1
      }
    }

    for (v <- 0 until g.n) {
      clique(0) = v
      extend(1, out(v))
    }
    results.toArray
  }
}
