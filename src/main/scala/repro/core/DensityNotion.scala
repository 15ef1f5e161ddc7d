package repro.core

import repro.graph._

/** A density notion ρ (§II-A) together with the per-world subroutines
  * Algorithm 1/5 need: the densest family (every densest subgraph, the
  * maximum-sized one and the optimal density), and the density of a given
  * node set — plus the §III-C heuristic substitute for the maximum-sized one.
  */
sealed trait DensityNotion extends Serializable {
  def name: String

  /** Instance node sets under this notion (edges / h-cliques / ψ-instances). */
  def instances(g: Graph): Array[Array[Int]]

  /** The densest family of world `g`, whose sets are read lazily. */
  final def family(g: Graph): DensityNotion.Family = Densest.family(g.n, instances(g))

  /** All densest subgraphs (at most `cap` of them) + maximum-sized one +
    * exact optimum density.
    */
  final def allDensest(g: Graph, cap: Int): DensityNotion.World = Densest.allDensest(g.n, instances(g), cap)

  /** Density of `nodes` inside world `g`, as an exact rational. */
  final def densityOf(g: Graph, nodes: Set[Int]): (Long, Long) = {
    if (nodes.isEmpty) return (0L, 1L)
    val cnt = instances(g).count(_.forall(nodes.contains)).toLong
    (cnt, nodes.size.toLong)
  }

  /** §III-C heuristic: the union of the innermost core and every denser
    * peel suffix, one suffix of the whole peel, as sorted ids (empty without
    * instances).
    */
  final def heuristicDense(g: Graph): Array[Int] = {
    val pr = HyperPeeling.peel(g.n, instances(g))
    val nucleus = pr.order.drop(pr.heuristicStart)
    java.util.Arrays.sort(nucleus)
    nucleus
  }
}

object DensityNotion {

  /** Per-world result of `allDensest`. */
  type World = Densest.World

  /** Per-world result of `family`. */
  type Family = Densest.Family

  case object Edge extends DensityNotion {
    val name = "edge"
    def instances(g: Graph): Array[Array[Int]] = Cliques.enumerate(g, 2)
  }

  final case class Clique(h: Int) extends DensityNotion {
    val name = s"$h-clique"
    def instances(g: Graph): Array[Array[Int]] = Cliques.enumerate(g, h)
  }

  final case class Pat(psi: Pattern) extends DensityNotion {
    val name = psi.name
    def instances(g: Graph): Array[Array[Int]] = psi.instances(g)
  }
}
