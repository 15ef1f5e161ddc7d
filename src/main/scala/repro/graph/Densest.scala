package repro.graph

import scala.annotation.tailrec
import scala.collection.mutable

/** Exact densest subgraphs under any weighted instance-count density
  * (§III): the density of a node set U is the total weight of the instances
  * inside U over |U|. Edges, h-cliques and ψ-instances (Algorithms 1, 2 and
  * 4) are unit-weight instances; EDS's embeddings carry quantised
  * probabilities.
  *
  * One flow network serves every notion: Algorithm 7's, with one node per
  * group of instances sharing a node set, capacities v→λ: w·b and
  * λ→v: w(q−1)·b. By Lemma 11 its min cut at guess α = a/b is < q·W·b iff a
  * subset denser than α exists, and the cut's source side is one. A 2-node
  * group is contracted into an arc pair of capacity w·b each way (the same
  * cuts, one node fewer). For h-cliques this network replaces Algorithm 6's
  * (h−1)-clique Λ network, which was slower on every clique bench.
  *
  * Convention (matching Table I): a world with no instance has no densest
  * subgraph — every set ties at density 0, which carries no signal, and the
  * paper credits no node set in such worlds.
  */
object Densest {

  /** Per-world result of `allDensest`: the densest family (possibly capped),
    * its union (the maximum-sized densest subgraph), and ρ* = num/den as a
    * reduced rational.
    */
  final case class World(
      all: Seq[Array[Int]],
      capped: Boolean,
      maxSized: Array[Int],
      num: Long,
      den: Long,
  )

  /** The optimum ρ* = num/den (reduced) and a witness node set reached by
    * Dinkelbach iteration, with the flow network of its last, non-improving
    * step: a maximum flow at α = ρ*, whose residual holds every densest
    * subgraph. Network node ids: 0 = s, 1 = t, i + 2 for `nodes(i)`.
    */
  final case class Optimum(num: Long, den: Long, witness: Array[Int], net: FlowNetwork, nodes: Array[Int])

  /** Every densest subgraph of one world, read lazily: ρ* = num/den
    * (reduced), their union `maxSized` (the maximum-sized densest subgraph,
    * [58]; Algorithm 5 line 4) as sorted ids, and `sets()`, which lists the
    * family one set at a time (Algorithm 3), however large it is.
    *
    * `local` maps each node of the flow network at ρ* to its residual
    * strongly connected component outside scc(s) and scc(t), numbered
    * densely in Tarjan order, or -1; `comp(j)` is the component of
    * `maxSized(j)`.
    */
  final class Family private[Densest] (val num: Long, val den: Long, val maxSized: Array[Int],
      net: FlowNetwork, local: Array[Int], comp: Array[Int]) {

    /** A fresh iterator over the densest subgraphs, each as sorted ids, in
      * the preorder of Algorithm 3's recursion. It builds the condensation
      * DAG and its descendant and ancestor sets when called, and holds one
      * closure per level of the recursion, not the sets it has returned.
      */
    def sets(): Iterator[Array[Int]] = {
      // Condensation restricted to non-trivial components (Definition 9
      // defines des/anc over non-trivial components only).
      val k = if (local.isEmpty) 0 else local.max + 1
      val dagOut = Array.fill(k)(mutable.HashSet.empty[Int])
      for (u <- 0 until net.numNodes; p <- net.start(u) until net.start(u + 1); if net.cap(p) > 0) {
        val cu = local(u); val cv = local(net.head(p))
        if (cu >= 0 && cv >= 0 && cu != cv) dagOut(cu) += cv
      }
      val des = SCC.descendants(dagOut.map(_.toArray))
      val anc = Array.fill(k)(new java.util.BitSet(k))
      for (c <- 0 until k) {
        val dc = des(c)
        var d = dc.nextSetBit(0)
        while (d >= 0) { anc(d).set(c); d = dc.nextSetBit(d + 1) }
      }
      val withV = new java.util.BitSet(k)
      comp.foreach(withV.set)

      // Algorithm 3, depth first with an explicit stack. Level d holds C1 ∪
      // des(C1) and the candidates still to try beside C1, `cands(d)` from
      // `pos(d)` on: only components with V-nodes (line 5), in order. Taking
      // the next candidate c yields the child C1 ∪ {c} and pushes it with
      // the later candidates outside des(c) and anc(c) (independence),
      // sharing the parent's array when c excludes none of them. A level
      // costs heap, not thread stack: each one fixes a candidate, so depth
      // ≤ k.
      new Iterator[Array[Int]] {
        private val closures = new Array[java.util.BitSet](k + 1)
        private val cands = new Array[Array[Int]](k + 1)
        private val pos = new Array[Int](k + 1)
        private var d = 0
        private val out = new Array[Int](maxSized.length)
        closures(0) = new java.util.BitSet(k)
        cands(0) = withV.stream().toArray

        def hasNext: Boolean = {
          while (d >= 0 && pos(d) == cands(d).length) d -= 1
          d >= 0
        }

        def next(): Array[Int] = {
          if (!hasNext) throw new NoSuchElementException("no further densest subgraph")
          val from = cands(d)
          val c = from(pos(d))
          pos(d) += 1
          val closure = closures(d).clone().asInstanceOf[java.util.BitSet]
          closure.set(c)
          closure.or(des(c))
          val independent = (x: Int) => !des(c).get(x) && !anc(c).get(x)
          var i = pos(d)
          while (i < from.length && independent(from(i))) i += 1
          d += 1
          closures(d) = closure
          if (i == from.length) { cands(d) = from; pos(d) = pos(d - 1) }
          else { cands(d) = from.drop(pos(d - 1)).filter(independent); pos(d) = 0 }
          // The nodes of maxSized in the closure: sorted, as maxSized is.
          var size = 0
          var j = 0
          while (j < comp.length) {
            if (closure.get(comp(j))) { out(size) = maxSized(j); size += 1 }
            j += 1
          }
          java.util.Arrays.copyOf(out, size)
        }
      }
    }
  }

  private val noInstances =
    new Family(0L, 1L, Array.empty, new FlowNetwork(0, Array.empty, Array.empty, Array.empty), Array.empty, Array.empty)

  private def gcd(a: Long, b: Long): Long = if (b == 0) math.max(a, 1) else gcd(b, a % b)

  /** The densest family for the instances `inst` (node sets, ids < n)
    * (Algorithms 1–4 and 7): the peel, ρ* and the residual components run
    * here, the enumeration in `sets()`.
    *
    * Lines 1–2 peel only the t-core that holds the best peel suffix (see
    * [[HyperPeeling]]): the same ρ̃, (⌈ρ̃⌉, ψ)-core and Dinkelbach start as
    * peeling every node. An edge, h-clique or (non-induced) ψ-instance lies
    * in a node set U iff its nodes do, so the instances of the
    * (⌈ρ̃⌉, ψ)-core are the entries of `inst` whose nodes all have core
    * number ≥ ⌈ρ̃⌉, kept in `inst`'s order; none is enumerated again.
    */
  def family(n: Int, inst: Array[Array[Int]]): Family = {
    if (inst.isEmpty) return noInstances

    // Lines 1-2: peeling lower bound ρ̃ and the (⌈ρ̃⌉, ψ)-core, which holds
    // every densest subgraph.
    val cores = HyperPeeling.decompose(n, inst)
    val pr = cores.peel(cores.bestSuffixCore)
    val (a, b) = pr.bestDensity

    // Line 3: the core's instances, grouped by node set; line 4: ρ*.
    val (sets, counts) = Pattern.groups(cores.coreInstances((a + b - 1) / b))
    val opt = maxDensity(sets, counts.map(_.toLong), pr.bestSuffixNodes)

    // Lines 5-7: the residual SCCs of the flow at ρ*, those outside scc(s)
    // and scc(t) renumbered densely in Tarjan order.
    val (comp, nComp) = SCC.components(opt.net)
    val dense = Array.fill(nComp)(-1)
    var k = 0
    for (c <- 0 until nComp; if c != comp(0) && c != comp(1)) { dense(c) = k; k += 1 }
    val local = comp.map(dense)
    // The V-nodes are network ids 2 until nodes.length + 2, in ascending
    // node order. Every component with a V-node is a singleton independent
    // set, so the union of all densest subgraphs is every V-node outside
    // scc(s) and scc(t).
    val union = mutable.ArrayBuilder.make[Int]
    val unionComp = mutable.ArrayBuilder.make[Int]
    for (i <- opt.nodes.indices; c = local(i + 2); if c >= 0) { union += opt.nodes(i); unionComp += c }
    new Family(opt.num, opt.den, union.result(), opt.net, local, unionComp.result())
  }

  /** All densest subgraphs for the instances `inst`, up to `cap` of them:
    * the first `cap` sets of `family(n, inst).sets()`, and whether more
    * exist.
    */
  def allDensest(n: Int, inst: Array[Array[Int]], cap: Int): World = {
    val f = family(n, inst)
    val it = f.sets()
    val all = Vector.newBuilder[Array[Int]]
    var kept = 0
    while (kept < cap && it.hasNext) { all += it.next(); kept += 1 }
    World(all.result(), it.hasNext, f.maxSized, f.num, f.den)
  }

  /** Exact maximum density of instances `sets` (node sets of one size q)
    * with positive integer weights, by Dinkelbach iteration whose first
    * guess is the density of the node set `start` (distinct ids). The
    * network holds the distinct nodes of `sets` in ascending id order, so
    * its size, and the work here, follow the instances, not the id range.
    */
  def maxDensity(sets: Array[Array[Int]], weights: Array[Long], start: Array[Int]): Optimum = {
    val q = sets.headOption.fold(2L)(_.length.toLong)
    require(sets.forall(_.length == q), "instances must all have the same size")
    require(weights.forall(_ > 0), "instance weights must be positive")
    val flat = new Array[Int](q.toInt * sets.length)
    for (i <- sets.indices) System.arraycopy(sets(i), 0, flat, i * q.toInt, q.toInt)
    java.util.Arrays.sort(flat)
    var distinct = 0
    var j = 0
    while (j < flat.length) {
      if (distinct == 0 || flat(distinct - 1) != flat(j)) { flat(distinct) = flat(j); distinct += 1 }
      j += 1
    }
    val nodes = java.util.Arrays.copyOf(flat, distinct)
    def id(v: Int): Int = java.util.Arrays.binarySearch(nodes, v) + 2
    // The sets as network node ids, and each node's weighted degree.
    val local = sets.map(_.map(id))
    val deg = new Array[Long](nodes.length)
    for (i <- sets.indices; x <- local(i)) deg(x - 2) += weights(i)
    val total = weights.sum

    // Algorithm 7's network, built once: only its capacities depend on the
    // guess a/b. Every arc carries coefficient·b, except v→t's q·a.
    val pairs = 2 * nodes.length + (if (q == 2) sets.length else 2 * q.toInt * sets.length)
    val ends = new Array[Int](2 * pairs)
    val capB = new Array[Long](2 * pairs)
    val capA = new Array[Long](2 * pairs)
    var k = 0
    def pair(u: Int, v: Int, b: Long, a: Long, revB: Long): Unit = {
      ends(k) = u; ends(k + 1) = v; capB(k) = b; capA(k) = a; capB(k + 1) = revB; k += 2
    }
    for (i <- nodes.indices) {
      pair(0, i + 2, deg(i), 0L, 0L)
      pair(i + 2, 1, 0L, q, 0L)
    }
    for (gi <- sets.indices) {
      val w = weights(gi)
      val s = local(gi)
      if (q == 2) pair(s(0), s(1), w, 0L, w)
      else {
        val gid = nodes.length + 2 + gi
        for (x <- s) {
          pair(x, gid, w, 0L, 0L)
          pair(gid, x, w * (q - 1), 0L, 0L)
        }
      }
    }
    val net = new FlowNetwork(nodes.length + 2 + (if (q == 2) 0 else sets.length), ends, capB, capA)

    /** Total weight of the sets inside a mask over network node ids. */
    def weightInside(mask: Array[Boolean]): Long = {
      var c = 0L
      for (i <- sets.indices; if local(i).forall(mask)) c += weights(i)
      c
    }

    @tailrec def iterate(best: Array[Int], a: Long, b: Long): Optimum = {
      val gg = gcd(a, b)
      net.setCapacities(a / gg, b / gg)
      if (net.maxFlow(0, 1) >= q * total * (b / gg)) Optimum(a / gg, b / gg, best, net, nodes)
      else {
        val cut = net.minCutSourceSide(0)
        val v1 = nodes.indices.filter(i => cut(i + 2)).map(nodes).toArray
        val w1 = weightInside(cut)
        require(v1.nonEmpty && w1 * b > a * v1.length, "Dinkelbach step must strictly improve")
        iterate(v1, w1, v1.length.toLong)
      }
    }
    val inStart = new Array[Boolean](nodes.length + 2)
    for (v <- start; x = id(v); if x >= 2) inStart(x) = true
    iterate(start, weightInside(inStart), start.length.toLong)
  }
}
