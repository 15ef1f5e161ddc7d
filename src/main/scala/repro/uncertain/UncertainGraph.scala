package repro.uncertain

import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.graph.Graph

/** An uncertain graph `G = (V, E, p)` (§II): undirected simple edges with
  * independent existence probabilities in (0, 1].
  *
  * Edges are three parallel arrays: compact, and cheap to broadcast.
  */
final case class UncertainGraph(
    n: Int,
    edgeU: Array[Int],
    edgeV: Array[Int],
    prob: Array[Double],
) extends Serializable {
  require(edgeU.length == edgeV.length && edgeU.length == prob.length)
  require(prob.forall(p => p > 0.0 && p <= 1.0), "edge probabilities must lie in (0, 1]")

  def m: Int = edgeU.length

  /** The deterministic version of the graph (all edges present). */
  lazy val deterministic: Graph =
    Graph.fromEdges(n, edgeU.indices.map(i => (edgeU(i), edgeV(i))))

  /** Possible world from an edge-presence mask. */
  def world(present: Array[Boolean]): Graph = {
    val es = for (i <- 0 until m; if present(i)) yield (edgeU(i), edgeV(i))
    Graph.fromEdges(n, es)
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

  def toDF(spark: SparkSession): DataFrame = {
    import spark.implicits._
    edgeU.indices.map(i => (edgeU(i), edgeV(i), prob(i))).toDF("src", "dst", "p")
  }
}

object UncertainGraph {

  def fromEdges(n: Int, edges: Seq[(Int, Int, Double)]): UncertainGraph = {
    val canon = edges.map { case (u, v, p) => if (u < v) (u, v, p) else (v, u, p) }
      .distinctBy(e => (e._1, e._2))
    UncertainGraph(n, canon.map(_._1).toArray, canon.map(_._2).toArray, canon.map(_._3).toArray)
  }
}
