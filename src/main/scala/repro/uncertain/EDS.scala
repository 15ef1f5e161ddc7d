package repro.uncertain

import repro.graph.{Cliques, Densest, Pattern}

/** Expected densest subgraph (Zou [44]) and its clique/pattern extensions
  * (Appendix C) — the main baseline of §VI-B.
  *
  * By linearity of expectation the expected ψ-density of U equals
  * Σ_{embeddings inside U} Pr[embedding's edges exist] / |U| (Theorem 7),
  * i.e. a *weighted* instance-densest-subgraph problem. We solve it exactly
  * (up to the 1e-6 weight quantisation documented in DESIGN.md) with
  * [[repro.graph.Densest]], using instance weights scaled to integers.
  */
object EDS {

  private val Scale = 1000000L

  final case class Result(nodes: Set[Int], expectedDensity: Double)

  /** The expected ψ-densest subgraph over the embeddings `embs`, each a
    * node set with its pattern edges. An embedding's probability is the
    * product of its edges' (Theorem 7), and its weight that probability
    * scaled to an integer. The engine's Dinkelbach step solves the weighted
    * instances, started from every node of positive weight; instances whose
    * weight rounds to 0 add nothing to any density and are dropped.
    */
  private def solve(g: UncertainGraph, embs: Array[(Array[Int], Array[(Int, Int)])]): Result = {
    val probs = embs.map { case (_, edges) =>
      var p = 1.0
      for ((u, v) <- edges) p *= g.prob(g.edgeIndex(u, v))
      p
    }
    val weights = probs.map(p => math.round(p * Scale))
    val keep = embs.indices.filter(weights(_) > 0).toArray
    val start = keep.flatMap(embs(_)._1).distinct
    val nodes = Densest.maxDensity(keep.map(embs(_)._1), keep.map(weights), start).witness.toSet
    val ed =
      if (nodes.isEmpty) 0.0
      else embs.indices.collect { case i if embs(i)._1.forall(nodes.contains) => probs(i) }.sum / nodes.size
    Result(nodes, ed)
  }

  /** Expected edge densest subgraph [44]. */
  def edge(g: UncertainGraph): Result =
    solve(g, Cliques.enumerate(g.deterministic, 2).map(e => (e, Array((e(0), e(1))))))

  /** Expected h-clique densest subgraph (Appendix C): a clique's edges are
    * all of its pairs.
    */
  def clique(g: UncertainGraph, h: Int): Result =
    solve(g, Cliques.enumerate(g.deterministic, h).map { c =>
      (c, for (i <- c.indices.toArray; j <- i + 1 until c.length) yield (c(i), c(j)))
    })

  /** Expected ψ-densest subgraph (Appendix C), over ψ's embeddings. */
  def pattern(g: UncertainGraph, psi: Pattern): Result = solve(g, psi.embeddings(g.deterministic))

  /** E[ρ_e(U)] = Σ_{edges inside U} p(e) / |U| (linearity of expectation). */
  def expectedEdgeDensity(g: UncertainGraph, nodes: Set[Int]): Double =
    if (nodes.isEmpty) 0.0
    else (0 until g.m).collect {
      case i if nodes.contains(g.edgeU(i)) && nodes.contains(g.edgeV(i)) => g.prob(i)
    }.sum / nodes.size
}
