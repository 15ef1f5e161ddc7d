package repro.core

import repro.uncertain.UncertainGraph

/** The densest subgraph of the *deterministic version* of an uncertain
  * graph (all edges taken as certain) — the Table VII / §VI-C baseline.
  */
object DDS {

  /** Node set of a densest subgraph of the deterministic version under the
    * given notion (the maximum-sized one, for determinism).
    */
  def nodes(g: UncertainGraph, notion: DensityNotion): Set[Int] =
    notion.family(g.deterministic).maxSized.toSet
}
