package repro.graph

/** Dinic's maximum-flow on integer (Long) capacities.
  *
  * This is the flow substrate behind Goldberg's densest-subgraph algorithm
  * (§III-A) and the clique/pattern flow network of Algorithm 7. All
  * network capacities in this repo are scaled to integers (densities are
  * rationals `a/b`; capacities are multiplied by `b`), so the computed flow
  * and min cut are exact.
  *
  * The arcs are fixed at construction, in residual pairs: pair k runs from
  * `ends(2k)` to `ends(2k + 1)`, and its forward and reverse arcs take their
  * capacity coefficients from indices 2k and 2k + 1 of `capB` and `capA`.
  * They are stored as CSR: node u's arcs are `start(u) until start(u + 1)`,
  * in the order given, and arc p ends at `head(p)`. Only the capacities
  * change, so one network serves every Dinkelbach guess α = a/b.
  */
final class FlowNetwork(val numNodes: Int, ends: Array[Int], capB: Array[Long], capA: Array[Long]) {
  require(ends.length % 2 == 0 && capB.length == ends.length && capA.length == ends.length)

  val start: Array[Int] = new Array[Int](numNodes + 1)
  val head: Array[Int] = new Array[Int](ends.length)
  /** Residual capacity per arc: after `maxFlow`, the arcs with `cap > 0`. */
  val cap: Array[Long] = new Array[Long](ends.length)
  private val rev = new Array[Int](ends.length)
  private val coefB = new Array[Long](ends.length)
  private val coefA = new Array[Long](ends.length)

  locally {
    for (u <- ends) start(u + 1) += 1
    for (u <- 0 until numNodes) start(u + 1) += start(u)
    // pos(i): input arc i's CSR position, filled per node in input order.
    val fill = start.clone()
    val pos = ends.map { u => fill(u) += 1; fill(u) - 1 }
    for (i <- ends.indices) {
      val p = pos(i)
      head(p) = ends(i ^ 1); rev(p) = pos(i ^ 1); coefB(p) = capB(i); coefA(p) = capA(i)
    }
  }

  /** Set every capacity to `capB·b + capA·a`, discarding any flow. */
  def setCapacities(a: Long, b: Long): Unit = {
    var p = 0
    while (p < cap.length) { cap(p) = coefB(p) * b + coefA(p) * a; p += 1 }
  }

  /** BFS levels from s over arcs of positive residual capacity; -1 where
    * unreachable.
    */
  private def levels(s: Int): Array[Int] = {
    val level = new Array[Int](numNodes)
    java.util.Arrays.fill(level, -1)
    val queue = new Array[Int](numNodes)
    var qh = 0; var qt = 1
    queue(0) = s; level(s) = 0
    while (qh < qt) {
      val u = queue(qh); qh += 1
      var p = start(u)
      while (p < start(u + 1)) {
        if (cap(p) > 0 && level(head(p)) < 0) { level(head(p)) = level(u) + 1; queue(qt) = head(p); qt += 1 }
        p += 1
      }
    }
    level
  }

  /** Run Dinic from s to t; returns the max-flow value. `cap` afterwards
    * holds residual capacities. Each blocking flow comes from a current-arc
    * DFS that keeps its path in an array (no recursion) and restarts from s
    * after every augmentation.
    */
  def maxFlow(s: Int, t: Int): Long = {
    val it = new Array[Int](numNodes)
    // Arcs of the current path from s; levels rise along it.
    val path = new Array[Int](numNodes)
    var flow = 0L
    var level = levels(s)
    while (level(t) >= 0) {
      System.arraycopy(start, 0, it, 0, numNodes)
      var depth = 0
      var u = s
      while (u >= 0) {
        if (u == t) {
          var d = Long.MaxValue
          var i = 0
          while (i < depth) { d = math.min(d, cap(path(i))); i += 1 }
          while (i > 0) { i -= 1; cap(path(i)) -= d; cap(rev(path(i))) += d }
          flow += d
          depth = 0; u = s
        } else {
          var p = it(u)
          while (p < start(u + 1) && !(cap(p) > 0 && level(head(p)) == level(u) + 1)) p += 1
          it(u) = p
          if (p < start(u + 1)) { path(depth) = p; depth += 1; u = head(p) }
          else if (depth == 0) u = -1 // s is blocked
          else { depth -= 1; u = head(rev(path(depth))); it(u) += 1 } // dead end: skip the arc
        }
      }
      level = levels(s)
    }
    flow
  }

  /** Nodes reachable from s via arcs with positive residual capacity —
    * the source side of a minimum cut (call after `maxFlow`).
    */
  def minCutSourceSide(s: Int): Array[Boolean] = levels(s).map(_ >= 0)
}
