package repro.uncertain

import repro.graph.Graph

/** An uncertain graph `G = (V, E, p)` (§II): undirected simple edges with
  * independent existence probabilities in (0, 1].
  *
  * Edges are three parallel arrays: compact, and cheap to broadcast. Each
  * edge is canonical (`u < v`, both `< n`) and no edge repeats, so a world
  * is built straight from the present edges, in edge order.
  */
final case class UncertainGraph(
    n: Int,
    edgeU: Array[Int],
    edgeV: Array[Int],
    prob: Array[Double],
) extends Serializable {
  require(edgeU.length == edgeV.length && edgeU.length == prob.length)
  require(prob.forall(p => p > 0.0 && p <= 1.0), "edge probabilities must lie in (0, 1]")
  require(canonicalAndDistinct, "edges must be canonical (0 <= u < v < n) and distinct")

  private def canonicalAndDistinct: Boolean = {
    val keys = new Array[Long](edgeU.length)
    var i = 0
    while (i < keys.length) {
      if (edgeU(i) < 0 || edgeU(i) >= edgeV(i) || edgeV(i) >= n) return false
      keys(i) = edgeU(i).toLong << 32 | edgeV(i)
      i += 1
    }
    java.util.Arrays.sort(keys)
    i = 1
    while (i < keys.length && keys(i - 1) != keys(i)) i += 1
    i >= keys.length
  }

  def m: Int = edgeU.length

  /** Index of the edge {u, v}, which must exist. */
  def edgeIndex(u: Int, v: Int): Int = {
    val i = edgeIds.get(math.min(u, v).toLong << 32 | math.max(u, v))
    if (i == null) throw new NoSuchElementException(s"no edge {$u, $v}")
    i
  }

  /** Edge → index, keyed by the packed canonical pair. Built on first use and
    * not serialised, so it never travels with a broadcast graph.
    */
  @transient private lazy val edgeIds: java.util.HashMap[java.lang.Long, Integer] = {
    val map = new java.util.HashMap[java.lang.Long, Integer](2 * m)
    for (i <- 0 until m) map.put(edgeU(i).toLong << 32 | edgeV(i), i)
    map
  }

  /** The deterministic version of the graph (all edges present), built on
    * first use and not serialised.
    */
  @transient lazy val deterministic: Graph = Graph.fromCanonicalEdges(n, edgeU, edgeV)

  /** Possible world from an edge-presence mask. */
  def world(present: Array[Boolean]): Graph = {
    var k = 0
    var i = 0
    while (i < m) { if (present(i)) k += 1; i += 1 }
    val eu = new Array[Int](k)
    val ev = new Array[Int](k)
    k = 0
    i = 0
    while (i < m) {
      if (present(i)) { eu(k) = edgeU(i); ev(k) = edgeV(i); k += 1 }
      i += 1
    }
    Graph.fromCanonicalEdges(n, eu, ev)
  }

  /** Pr(G) of a possible world (Equation 1). */
  def worldProbability(present: Array[Boolean]): Double = {
    var p = 1.0
    var i = 0
    while (i < m) {
      p *= (if (present(i)) prob(i) else 1.0 - prob(i))
      i += 1
    }
    p
  }

  /** World for a bitmask (m <= 62) — used by the exact algorithm. */
  def worldOfMask(mask: Long): Array[Boolean] =
    Array.tabulate(m)(i => (mask & (1L << i)) != 0)

  /** Mean / standard deviation / quartiles of edge probabilities, as
    * reported per dataset in Table II.
    */
  def probStats: (Double, Double, (Double, Double, Double)) = {
    val sorted = prob.sorted
    val mean = prob.sum / m
    val std = math.sqrt(prob.map(p => (p - mean) * (p - mean)).sum / m)
    def q(f: Double) = sorted(math.min(m - 1, (f * m).toInt))
    (mean, std, (q(0.25), q(0.5), q(0.75)))
  }

  /** Edge probabilities of the induced uncertain subgraph on `nodes`. */
  def inducedEdges(nodes: Set[Int]): Seq[(Int, Int, Double)] =
    (0 until m).collect {
      case i if nodes.contains(edgeU(i)) && nodes.contains(edgeV(i)) =>
        (edgeU(i), edgeV(i), prob(i))
    }
}

object UncertainGraph {

  /** Canonicalises each edge to `u < v`, drops self-loops and keeps the
    * first of repeated edges.
    */
  def fromEdges(n: Int, edges: Seq[(Int, Int, Double)]): UncertainGraph = {
    val canon = edges.collect { case (u, v, p) if u != v => if (u < v) (u, v, p) else (v, u, p) }
      .distinctBy(e => (e._1, e._2))
    UncertainGraph(n, canon.map(_._1).toArray, canon.map(_._2).toArray, canon.map(_._3).toArray)
  }
}
