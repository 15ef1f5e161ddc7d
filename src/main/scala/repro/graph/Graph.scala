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
) extends Serializable {

  /** Sorted adjacency lists, built on first use: the edge-density kernel
    * reads only `edgeU` and `edgeV`, so its worlds never build them.
    */
  lazy val adj: Array[Array[Int]] = {
    val deg = new Array[Int](n)
    var i = 0
    while (i < m) { deg(edgeU(i)) += 1; deg(edgeV(i)) += 1; i += 1 }
    val adj = new Array[Array[Int]](n)
    val none = new Array[Int](0)
    var v = 0
    while (v < n) { adj(v) = if (deg(v) == 0) none else new Array[Int](deg(v)); v += 1 }
    val fill = new Array[Int](n)
    i = 0
    while (i < m) {
      val u = edgeU(i); val v = edgeV(i)
      adj(u)(fill(u)) = v; fill(u) += 1
      adj(v)(fill(v)) = u; fill(v) += 1
      i += 1
    }
    v = 0
    while (v < n) { if (deg(v) > 1) java.util.Arrays.sort(adj(v)); v += 1 }
    adj
  }

  /** Number of edges. */
  def m: Int = edgeU.length

  /** Degree of node `v`. */
  def degree(v: Int): Int = adj(v).length

  /** True iff the canonical edge (min(u,v), max(u,v)) exists. */
  def hasEdge(u: Int, v: Int): Boolean = {
    val (a, b) = if (u < v) (u, v) else (v, u)
    java.util.Arrays.binarySearch(adj(a), b) >= 0
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
  private[repro] def fromCanonicalEdges(n: Int, eu: Array[Int], ev: Array[Int]): Graph = new Graph(n, eu, ev)
}
