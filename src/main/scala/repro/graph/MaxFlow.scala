package repro.graph

import scala.collection.mutable

/** Dinic's maximum-flow on integer (Long) capacities.
  *
  * This is the flow substrate behind Goldberg's densest-subgraph algorithm
  * (§III-A) and the clique/pattern flow network of Algorithm 7. All
  * network capacities in this repo are scaled to integers (densities are
  * rationals `a/b`; capacities are multiplied by `b`), so the computed flow
  * and min cut are exact.
  */
final class FlowNetwork(val numNodes: Int) {
  /** Arc heads; arc i's reverse arc is i ^ 1. */
  private val headB = mutable.ArrayBuilder.make[Int]
  private val capB = mutable.ArrayBuilder.make[Long]
  private val adjList = Array.fill(numNodes)(mutable.ArrayBuilder.make[Int])
  private var arcCount = 0

  var head: Array[Int] = _
  var cap: Array[Long] = _
  var adjIdx: Array[Array[Int]] = _

  /** Add a directed arc u->v with capacity c (reverse arc capacity 0). */
  def addArc(u: Int, v: Int, c: Long): Unit = addArcPair(u, v, c, 0L)

  /** Add arcs u->v (capacity c) and v->u (capacity cRev) as a residual pair. */
  def addArcPair(u: Int, v: Int, c: Long, cRev: Long): Unit = {
    headB += v; capB += c; adjList(u) += arcCount; arcCount += 1
    headB += u; capB += cRev; adjList(v) += arcCount; arcCount += 1
  }

  private def freeze(): Unit = if (head == null) {
    head = headB.result(); cap = capB.result()
    adjIdx = adjList.map(_.result())
  }

  /** Run Dinic from s to t; returns the max-flow value. `cap` afterwards
    * holds residual capacities.
    */
  def maxFlow(s: Int, t: Int): Long = {
    freeze()
    val level = new Array[Int](numNodes)
    val it = new Array[Int](numNodes)
    val queue = new Array[Int](numNodes)

    def bfs(): Boolean = {
      java.util.Arrays.fill(level, -1)
      var qh = 0; var qt = 0
      queue(qt) = s; qt += 1; level(s) = 0
      while (qh < qt) {
        val u = queue(qh); qh += 1
        val arcs = adjIdx(u)
        var i = 0
        while (i < arcs.length) {
          val a = arcs(i)
          val v = head(a)
          if (cap(a) > 0 && level(v) < 0) {
            level(v) = level(u) + 1
            queue(qt) = v; qt += 1
          }
          i += 1
        }
      }
      level(t) >= 0
    }

    def dfs(u: Int, pushed: Long): Long = {
      if (u == t) return pushed
      var res = 0L
      while (it(u) < adjIdx(u).length && res == 0L) {
        val a = adjIdx(u)(it(u))
        val v = head(a)
        if (cap(a) > 0 && level(v) == level(u) + 1) {
          val d = dfs(v, math.min(pushed, cap(a)))
          if (d > 0) { cap(a) -= d; cap(a ^ 1) += d; res = d }
          else it(u) += 1
        } else it(u) += 1
      }
      res
    }

    var flow = 0L
    while (bfs()) {
      java.util.Arrays.fill(it, 0)
      var f = dfs(s, Long.MaxValue)
      while (f > 0) { flow += f; f = dfs(s, Long.MaxValue) }
    }
    flow
  }

  /** Nodes reachable from s via arcs with positive residual capacity —
    * the source side of a minimum cut (call after `maxFlow`).
    */
  def minCutSourceSide(s: Int): Array[Boolean] = {
    freeze()
    val vis = new Array[Boolean](numNodes)
    val stack = mutable.ArrayDeque(s)
    vis(s) = true
    while (stack.nonEmpty) {
      val u = stack.removeLast()
      for (a <- adjIdx(u); if cap(a) > 0 && !vis(head(a))) {
        vis(head(a)) = true
        stack.append(head(a))
      }
    }
    vis
  }

  /** Adjacency of the residual graph (arcs with residual capacity > 0),
    * as used for the SCC step of Algorithms 2 and 4.
    */
  def residualAdjacency: Array[Array[Int]] =
    { freeze(); Array.tabulate(numNodes)(u => adjIdx(u).filter(cap(_) > 0).map(head)) }
}

object FlowNetwork {
  /** "Infinite" capacity that cannot overflow when summed. */
  val Inf: Long = Long.MaxValue / 8
}
