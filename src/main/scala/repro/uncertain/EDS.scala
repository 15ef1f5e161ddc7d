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

  /** The max-density witness of instances `sets` with integer weights
    * (the engine's Dinkelbach step, started from every node of positive
    * weight). Instances whose weight rounds to 0 add nothing to any density
    * and are dropped.
    */
  private def densest(sets: Array[Array[Int]], weights: Array[Long]): Set[Int] = {
    val keep = sets.indices.filter(weights(_) > 0).toArray
    val start = keep.flatMap(sets(_)).distinct
    Densest.maxDensity(keep.map(sets), keep.map(weights), start).witness.toSet
  }

  /** Expected edge densest subgraph [44]. */
  def edge(g: UncertainGraph): Result = {
    val w = g.prob.map(p => math.round(p * Scale))
    val nodes = densest(Cliques.enumerate(g.deterministic, 2), w)
    Result(nodes, expectedEdgeDensity(g, nodes))
  }

  /** Expected h-clique densest subgraph (Appendix C). */
  def clique(g: UncertainGraph, h: Int): Result = {
    val cliques = Cliques.enumerate(g.deterministic, h)
    def cliqueProb(c: Array[Int]): Double = {
      var p = 1.0
      for (i <- c.indices; j <- i + 1 until c.length) p *= g.prob(g.edgeIndex(c(i), c(j)))
      p
    }
    val w = cliques.map(c => math.round(cliqueProb(c) * Scale))
    val nodes = densest(cliques, w)
    val ed =
      if (nodes.isEmpty) 0.0
      else cliques.toSeq.collect { case c if c.forall(nodes.contains) => cliqueProb(c) }.sum / nodes.size
    Result(nodes, ed)
  }

  /** Expected ψ-densest subgraph (Appendix C): embedding weight is the
    * product of the probabilities of the embedding's own pattern edges
    * (Theorem 7).
    */
  def pattern(g: UncertainGraph, psi: Pattern): Result = {
    val embs = psi.embeddings(g.deterministic)
    def embProb(edges: Array[(Int, Int)]): Double = {
      var p = 1.0
      for ((u, v) <- edges) p *= g.prob(g.edgeIndex(u, v))
      p
    }
    val sets = embs.map(_._1)
    val w = embs.map(e => math.round(embProb(e._2) * Scale))
    val nodes = densest(sets, w)
    val ed =
      if (nodes.isEmpty) 0.0
      else embs.toSeq.collect { case (s, e) if s.forall(nodes.contains) => embProb(e) }.sum / nodes.size
    Result(nodes, ed)
  }

  /** E[ρ_e(U)] = Σ_{edges inside U} p(e) / |U| (linearity of expectation). */
  def expectedEdgeDensity(g: UncertainGraph, nodes: Set[Int]): Double =
    if (nodes.isEmpty) 0.0
    else (0 until g.m).collect {
      case i if nodes.contains(g.edgeU(i)) && nodes.contains(g.edgeV(i)) => g.prob(i)
    }.sum / nodes.size
}
