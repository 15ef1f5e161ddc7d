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
  final case class Optimum(num: Long, den: Long, witness: Array[Boolean], net: FlowNetwork, nodes: Array[Int])

  private def gcd(a: Long, b: Long): Long = if (b == 0) math.max(a, 1) else gcd(b, a % b)

  /** All densest subgraphs for the instances `inst` (node sets, ids < n),
    * up to `cap` of them (Algorithms 1–4 and 7).
    *
    * Lines 1–3 peel `inst` once. An edge, h-clique or (non-induced)
    * ψ-instance lies in a node set U iff its nodes do, so the instances of
    * the (⌈ρ̃⌉, ψ)-core are the entries of `inst` whose nodes all have core
    * number ≥ ⌈ρ̃⌉, kept in `inst`'s order; none is enumerated again.
    */
  def allDensest(n: Int, inst: Array[Array[Int]], cap: Int): World = {
    if (inst.isEmpty) return World(Seq.empty, capped = false, Array.empty, 0L, 1L)

    // Lines 1-2: peeling lower bound ρ̃ and the (⌈ρ̃⌉, ψ)-core, which holds
    // every densest subgraph.
    val pr = HyperPeeling.peel(n, inst)
    val (a, b) = pr.bestDensity
    val core = pr.coreAtLeast((a + b - 1) / b)

    // Line 3: the core's instances, grouped by node set; line 4: ρ*.
    val (sets, counts) = Pattern.groups(inst.filter(_.forall(core)))
    val opt = maxDensity(n, sets, counts.map(_.toLong), pr.bestSuffixNodes)

    // Lines 5-8: residual SCCs of the flow at ρ*, then Algorithm 3.
    val vOf = (id: Int) => if (id >= 2 && id < opt.nodes.length + 2) opt.nodes(id - 2) else -1
    val e = DensestEnum.enumerate(opt.net, 0, 1, vOf, cap)
    World(e.all, e.capped, e.maxSized, opt.num, opt.den)
  }

  /** Exact maximum density of instances `sets` (node sets of one size q,
    * ids < n) with positive integer weights, by Dinkelbach iteration whose
    * first guess is the density of the node set `start`. The network holds
    * the nodes of positive weighted degree.
    */
  def maxDensity(n: Int, sets: Array[Array[Int]], weights: Array[Long], start: Array[Boolean]): Optimum = {
    val q = sets.headOption.fold(2L)(_.length.toLong)
    require(sets.forall(_.length == q), "instances must all have the same size")
    require(weights.forall(_ > 0), "instance weights must be positive")
    val deg = new Array[Long](n)
    for (i <- sets.indices; v <- sets(i)) deg(v) += weights(i)
    val nodes = (0 until n).filter(deg(_) > 0).toArray
    val id = Array.fill(n)(-1)
    for (i <- nodes.indices) id(nodes(i)) = i + 2
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
    for (v <- nodes) {
      pair(0, id(v), deg(v), 0L, 0L)
      pair(id(v), 1, 0L, q, 0L)
    }
    for (gi <- sets.indices) {
      val w = weights(gi)
      val s = sets(gi)
      if (q == 2) pair(id(s(0)), id(s(1)), w, 0L, w)
      else {
        val gid = nodes.length + 2 + gi
        for (v <- s) {
          pair(id(v), gid, w, 0L, 0L)
          pair(gid, id(v), w * (q - 1), 0L, 0L)
        }
      }
    }
    val net = new FlowNetwork(nodes.length + 2 + (if (q == 2) 0 else sets.length), ends, capB, capA)

    def weightInside(mask: Array[Boolean]): Long = {
      var c = 0L
      for (i <- sets.indices; if sets(i).forall(mask)) c += weights(i)
      c
    }

    @tailrec def iterate(best: Array[Boolean], a: Long, b: Long): Optimum = {
      val gg = gcd(a, b)
      net.setCapacities(a / gg, b / gg)
      if (net.maxFlow(0, 1) >= q * total * (b / gg)) Optimum(a / gg, b / gg, best, net, nodes)
      else {
        val cut = net.minCutSourceSide(0)
        val v1 = new Array[Boolean](n)
        for (i <- nodes.indices; if cut(i + 2)) v1(nodes(i)) = true
        val w1 = weightInside(v1)
        val n1 = v1.count(identity).toLong
        require(n1 > 0 && w1 * b > a * n1, "Dinkelbach step must strictly improve")
        iterate(v1, w1, n1)
      }
    }
    iterate(start, weightInside(start), start.count(identity).toLong)
  }
}
