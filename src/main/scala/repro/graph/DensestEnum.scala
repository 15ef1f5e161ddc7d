package repro.graph

import scala.collection.mutable

/** Shared enumeration step of Algorithms 2/3/4: given the residual graph of
  * the density flow network under a maximum flow (at α = the exact optimum
  * density), enumerate every densest subgraph exactly once by exploring the
  * independent component sets of the condensation DAG (Corollary 2).
  */
object DensestEnum {

  /** Result of an all-densest enumeration.
    *
    * @param all       node-id sets of all densest subgraphs (may be capped)
    * @param capped    true iff a densest subgraph beyond the first
    *                  `maxResults` exists, so `all` is truncated
    * @param maxSized  the maximum-sized densest subgraph = union of all
    *                  densest subgraphs ([58]; Algorithm 5 line 4)
    */
  final case class Enumerated(all: Seq[Array[Int]], capped: Boolean, maxSized: Array[Int])

  /** @param net       the flow network under a maximum flow; its arcs of
    *                  positive residual capacity form the residual graph
    * @param s, t      source / sink network-node ids
    * @param vNodeOf   for a network node id, the graph node id if it is a
    *                  V-node, else -1 (instance-group nodes)
    * @param maxResults keep at most this many subgraphs, and stop at the
    *                  next one (enumeration count can be exponential —
    *                  Table VIII measures exactly this)
    */
  def enumerate(
      net: FlowNetwork,
      s: Int,
      t: Int,
      vNodeOf: Int => Int,
      maxResults: Int,
  ): Enumerated = {
    val (comp, nComp) = SCC.components(net)
    val trivial = Set(comp(s), comp(t))

    // Re-index non-trivial components densely.
    val ids = (0 until nComp).filterNot(trivial.contains).toArray
    val newId = Array.fill(nComp)(-1)
    for (i <- ids.indices) newId(ids(i)) = i
    val k = ids.length

    // V-node members per non-trivial component.
    val vNodes = Array.fill(k)(mutable.ArrayBuilder.make[Int])
    for (u <- 0 until net.numNodes; if newId(comp(u)) >= 0) {
      val g = vNodeOf(u)
      if (g >= 0) vNodes(newId(comp(u))) += g
    }
    val compV = vNodes.map(_.result().sorted)

    // Condensation restricted to non-trivial components (Definition 9
    // defines des/anc over non-trivial components only).
    val dagOut = Array.fill(k)(mutable.HashSet.empty[Int])
    for (u <- 0 until net.numNodes; p <- net.start(u) until net.start(u + 1); if net.cap(p) > 0) {
      val cu = newId(comp(u)); val cv = newId(comp(net.head(p)))
      if (cu >= 0 && cv >= 0 && cu != cv) dagOut(cu) += cv
    }
    val dag = dagOut.map(_.toArray)
    val des = SCC.descendants(dag)
    val anc = {
      val a = Array.fill(k)(new java.util.BitSet(k))
      for (c <- 0 until k) {
        val dc = des(c)
        var d = dc.nextSetBit(0)
        while (d >= 0) { a(d).set(c); d = dc.nextSetBit(d + 1) }
      }
      a
    }

    val results = mutable.ArrayBuffer.empty[Array[Int]]
    var capped = false

    def emit(closure: java.util.BitSet): Unit = {
      if (results.length >= maxResults) capped = true
      else {
        val b = mutable.ArrayBuilder.make[Int]
        var c = closure.nextSetBit(0)
        while (c >= 0) { b ++= compV(c); c = closure.nextSetBit(c + 1) }
        results += b.result().sorted
      }
    }

    // Algorithm 3, depth first with an explicit stack. Level d holds C1 ∪
    // des(C1) and the candidates still to try beside C1, `cands(d)` from
    // `next(d)` on: only components with V-nodes (line 5), in order. Taking
    // the next candidate c emits the child C1 ∪ {c} and pushes it with the
    // later candidates outside des(c) and anc(c) (independence), sharing
    // the parent's array when c excludes none of them. So `all` lists the
    // sets in the preorder of Algorithm 3's recursion, and a level costs
    // heap, not thread stack: each one fixes a candidate, so depth ≤ k.
    val closures = new Array[java.util.BitSet](k + 1)
    val cands = new Array[Array[Int]](k + 1)
    val next = new Array[Int](k + 1)
    closures(0) = new java.util.BitSet(k)
    cands(0) = (0 until k).filter(compV(_).nonEmpty).toArray
    var d = 0
    while (d >= 0 && !capped) {
      val from = cands(d)
      if (next(d) == from.length) d -= 1
      else {
        val c = from(next(d))
        next(d) += 1
        val closure = closures(d).clone().asInstanceOf[java.util.BitSet]
        closure.set(c)
        closure.or(des(c))
        emit(closure)
        val independent = (x: Int) => !des(c).get(x) && !anc(c).get(x)
        var i = next(d)
        while (i < from.length && independent(from(i))) i += 1
        d += 1
        closures(d) = closure
        if (i == from.length) { cands(d) = from; next(d) = next(d - 1) }
        else { cands(d) = from.drop(next(d - 1)).filter(independent); next(d) = 0 }
      }
    }

    // Maximum-sized densest subgraph: every non-trivial component with a
    // V-node forms a singleton independent set, so the union of all densest
    // subgraphs is simply all V-nodes outside scc(s) and scc(t).
    val maxSized = compV.toSeq.flatten.distinct.sorted.toArray
    Enumerated(results.toSeq, capped, maxSized)
  }
}
