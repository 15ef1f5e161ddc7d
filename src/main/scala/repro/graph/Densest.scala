package repro.graph

import scala.annotation.tailrec

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

  /** Per-world result: the densest family (possibly capped), its union (the
    * maximum-sized densest subgraph), and ρ* = num/den as a reduced rational.
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

  private def gcd(a: Long, b: Long): Long = if (b == 0) math.max(a, 1) else gcd(b, a % b)

  /** All densest subgraphs for the instances `inst` (node sets, ids < n),
    * up to `cap` of them (Algorithms 1–4 and 7).
    *
    * Lines 1–2 peel only the t-core that holds the best peel suffix (see
    * [[HyperPeeling]]): the same ρ̃, (⌈ρ̃⌉, ψ)-core and Dinkelbach start as
    * peeling every node. An edge, h-clique or (non-induced) ψ-instance lies
    * in a node set U iff its nodes do, so the instances of the
    * (⌈ρ̃⌉, ψ)-core are the entries of `inst` whose nodes all have core
    * number ≥ ⌈ρ̃⌉, kept in `inst`'s order; none is enumerated again.
    */
  def allDensest(n: Int, inst: Array[Array[Int]], cap: Int): World = {
    if (inst.isEmpty) return World(Seq.empty, capped = false, Array.empty, 0L, 1L)

    // Lines 1-2: peeling lower bound ρ̃ and the (⌈ρ̃⌉, ψ)-core, which holds
    // every densest subgraph.
    val cores = HyperPeeling.decompose(n, inst)
    val pr = cores.peel(cores.bestSuffixCore)
    val (a, b) = pr.bestDensity

    // Line 3: the core's instances, grouped by node set; line 4: ρ*.
    val (sets, counts) = Pattern.groups(cores.coreInstances((a + b - 1) / b))
    val opt = maxDensity(sets, counts.map(_.toLong), pr.bestSuffixNodes)

    // Lines 5-8: residual SCCs of the flow at ρ*, then Algorithm 3.
    val vOf = (id: Int) => if (id >= 2 && id < opt.nodes.length + 2) opt.nodes(id - 2) else -1
    val e = DensestEnum.enumerate(opt.net, 0, 1, vOf, cap)
    World(e.all, e.capped, e.maxSized, opt.num, opt.den)
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
