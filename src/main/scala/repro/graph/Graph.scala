package repro.graph

import scala.collection.mutable

/** Compact immutable undirected simple graph on nodes `0 until n`.
  *
  * Edges are stored canonically with `u < v`; adjacency lists are sorted.
  * All deterministic-graph subroutines of the paper (peeling, cores, flow
  * networks, clique/pattern enumeration) operate on this representation;
  * it is small enough to live inside a single Spark task, which is exactly
  * how a sampled possible world is processed by Algorithm 1.
  */
final class Graph private (
    val n: Int,
    val edgeU: Array[Int],
    val edgeV: Array[Int],
    val adj: Array[Array[Int]],
) extends Serializable {

  /** Number of edges. */
  def m: Int = edgeU.length

  /** Degree of node `v`. */
  def degree(v: Int): Int = adj(v).length

  /** True iff the canonical edge (min(u,v), max(u,v)) exists. */
  def hasEdge(u: Int, v: Int): Boolean = {
    val (a, b) = if (u < v) (u, v) else (v, u)
    java.util.Arrays.binarySearch(adj(a), b) >= 0
  }

  /** Edge density |E|/|V| of the whole graph (0 for the empty graph). */
  def edgeDensity: Double = if (n == 0) 0.0 else m.toDouble / n

  /** Subgraph induced by the nodes where `keep(v)` holds, preserving ids. */
  def inducedSubgraph(keep: Array[Boolean]): Graph = {
    val bu = mutable.ArrayBuilder.make[Int]
    val bv = mutable.ArrayBuilder.make[Int]
    var i = 0
    while (i < m) {
      if (keep(edgeU(i)) && keep(edgeV(i))) { bu += edgeU(i); bv += edgeV(i) }
      i += 1
    }
    Graph.fromCanonicalEdges(n, bu.result(), bv.result())
  }

  /** Subgraph induced by a node-id set, preserving ids. */
  def inducedSubgraph(nodes: Set[Int]): Graph = {
    val keep = new Array[Boolean](n)
    nodes.foreach(v => if (v < n) keep(v) = true)
    inducedSubgraph(keep)
  }

  /** Degeneracy ordering (smallest-degree-first peeling); returns the order
    * and each node's position in it. Used to orient clique enumeration.
    */
  def degeneracyOrder: (Array[Int], Array[Int]) = {
    val deg = Array.tabulate(n)(degree)
    val removed = new Array[Boolean](n)
    val order = new Array[Int](n)
    val pos = new Array[Int](n)
    // Bucket queue over degrees with lazy deletion: stale entries (degree
    // changed since enqueue) are skipped. A neighbour's degree drops by at
    // most 1 per removal, so restarting the scan at d-1 keeps this O(n+m).
    val buckets = Array.fill(n + 1)(mutable.ArrayDeque.empty[Int])
    for (v <- 0 until n) buckets(deg(v)).append(v)
    var d = 0
    var k = 0
    while (k < n) {
      if (d > 0) d -= 1
      var v = -1
      while (v < 0) {
        while (buckets(d).isEmpty) d += 1
        val cand = buckets(d).removeHead()
        if (!removed(cand) && deg(cand) == d) v = cand
      }
      removed(v) = true
      order(k) = v; pos(v) = k; k += 1
      for (w <- adj(v); if !removed(w)) {
        deg(w) -= 1
        buckets(deg(w)).append(w)
      }
    }
    (order, pos)
  }
}

object Graph {

  /** Build from arbitrary (u, v) pairs; self-loops and duplicates dropped. */
  def fromEdges(n: Int, edges: Iterable[(Int, Int)]): Graph = {
    val seen = mutable.HashSet.empty[Long]
    val bu = mutable.ArrayBuilder.make[Int]
    val bv = mutable.ArrayBuilder.make[Int]
    for ((x, y) <- edges; if x != y) {
      val (a, b) = if (x < y) (x, y) else (y, x)
      val key = a.toLong * n + b
      if (!seen.contains(key)) { seen += key; bu += a; bv += b }
    }
    fromCanonicalEdges(n, bu.result(), bv.result())
  }

  /** Build from edges that are already canonical (`u < v`) and distinct,
    * kept in the given order.
    */
  private[repro] def fromCanonicalEdges(n: Int, eu: Array[Int], ev: Array[Int]): Graph = {
    val deg = new Array[Int](n)
    var i = 0
    while (i < eu.length) { deg(eu(i)) += 1; deg(ev(i)) += 1; i += 1 }
    val adj = new Array[Array[Int]](n)
    val none = new Array[Int](0)
    var v = 0
    while (v < n) { adj(v) = if (deg(v) == 0) none else new Array[Int](deg(v)); v += 1 }
    val fill = new Array[Int](n)
    i = 0
    while (i < eu.length) {
      val u = eu(i); val v = ev(i)
      adj(u)(fill(u)) = v; fill(u) += 1
      adj(v)(fill(v)) = u; fill(v) += 1
      i += 1
    }
    v = 0
    while (v < n) { if (deg(v) > 1) java.util.Arrays.sort(adj(v)); v += 1 }
    new Graph(n, eu, ev, adj)
  }
}
