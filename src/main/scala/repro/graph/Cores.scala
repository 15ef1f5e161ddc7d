package repro.graph

import scala.collection.mutable

/** Generic "instance peeling" over a graph: an *instance* is a small node set
  * (an edge, an h-clique, or a ψ-instance). Peeling repeatedly removes the
  * node contained in the fewest live instances. This single substrate yields:
  *
  *   - Charikar's peeling lower bound for edge density [2] (instances=edges),
  *   - the peeling method of [19]/[5] for clique/pattern density (Alg 2/4 line 1),
  *   - (k,h)-core and (k,ψ)-core membership (Alg 2/4 line 2, Definition 7),
  *   - the heuristic of §III-C's remark (innermost core + denser suffixes),
  *     one suffix of the whole peel ([[PeelResult.heuristicStart]]).
  *
  * It runs in two steps. [[decompose]] builds the node → instance incidence
  * once and computes every core number by bucket peeling (Batagelj &
  * Zaversnik, "An O(m) Algorithm for Cores Decomposition of Networks", 2003)
  * in O(n + Σ|instance|), with no heap. [[Cores.peel]] then runs the exact
  * peel (least current degree, then least id) on a primitive heap, but only
  * on the t-core C_t, the nodes of core number ≥ t.
  *
  * Why the t-core's peel is the tail of the whole peel, and why
  * t = [[Cores.bestSuffixCore]] loses no suffix the kernel reads:
  *
  *   - A node's core number is the largest degree at removal up to it, so
  *     the min-degree peel removes nodes in non-decreasing core number. The
  *     nodes of core < t go first, what remains is C_t, and the peel goes on
  *     as C_t's own peel: its `order` and `suffixInstances` are the last
  *     |C_t| entries of the whole peel's.
  *   - A suffix S that starts at a node of core c < t is the (c+1)-core plus
  *     some nodes X of shell c, and each node of X dies with at most c live
  *     instances, so ρ(S) ≤ (I(C_{c+1}) + c|X|) / (|C_{c+1}| + |X|).
  *   - Let ρ_t be the best suffix density inside C_t. The kMax-core is such
  *     a suffix, so ρ_t ≥ ρ(C_kMax) > t − 1 ≥ c, as t = ⌈ρ(C_kMax)⌉. By
  *     induction on c downward, ρ(C_{c+1}) ≤ ρ_t, and the bound above is a
  *     mediant of it with c < ρ_t: strictly below ρ_t when X is non-empty.
  *   - So the best density, its earliest suffix, ⌈ρ̃⌉ ≥ t and the
  *     (⌈ρ̃⌉, ψ)-core all come out of C_t's peel unchanged.
  */
object HyperPeeling {

  /** Core numbers of `n` nodes against `instances`, with the incidence that
    * [[peel]] reuses. The nodes in some instance have local ids `0 until k`
    * in order of first appearance (`local(v) - 1`; 0 marks an isolated
    * node), so every array here but `local` is sized by k or by the
    * instances, not by n.
    *
    * @param ids      the node of each local id
    * @param incident the instances of local node l are
    *                 `incident(start(l) until start(l + 1))`, in instance order
    * @param core     core number by local id
    * @param byCore   local ids in the decomposition's removal order, so in
    *                 non-decreasing core number
    * @param level    the least core number among each instance's nodes
    */
  final class Cores private[HyperPeeling] (
      val n: Int,
      instances: Array[Array[Int]],
      local: Array[Int],
      ids: Array[Int],
      start: Array[Int],
      incident: Array[Int],
      core: Array[Int],
      byCore: Array[Int],
      level: Array[Int],
  ) {
    private def k = ids.length

    def coreNumber(v: Int): Int = if (local(v) == 0) 0 else core(local(v) - 1)

    /** Maximum core number (0 for an instance-free graph). */
    val kMax: Int = if (k == 0) 0 else core(byCore(k - 1))

    /** |C_kMax|, the nodes of core number kMax that lie in some instance
      * (0 for an instance-free graph).
      */
    private[HyperPeeling] val innermostSize: Int = k - firstOfCore(kMax)

    /** Index in `byCore` of the first node of core number ≥ `t`. */
    private def firstOfCore(t: Int): Int = {
      var from = k
      while (from > 0 && core(byCore(from - 1)) >= t) from -= 1
      from
    }

    /** t = ⌈I(C_kMax) / |C_kMax|⌉, the kMax-core's instance density rounded
      * up: the t-core's peel holds the best suffix (see [[HyperPeeling]]).
      * 1 ≤ t ≤ kMax when there are instances, and 0 when there are none.
      */
    val bestSuffixCore: Int =
      if (k == 0) 0 else (instancesFrom(kMax) + innermostSize - 1) / innermostSize

    /** The number of instances whose nodes all have core number ≥ `c`. */
    private def instancesFrom(c: Int): Int = {
      var count = 0
      var i = 0
      while (i < level.length) { if (level(i) >= c) count += 1; i += 1 }
      count
    }

    /** The instances whose nodes all have core number ≥ `c`, in order. */
    def coreInstances(c: Long): Array[Array[Int]] = {
      val out = mutable.ArrayBuilder.make[Array[Int]]
      var i = 0
      while (i < level.length) { if (level(i) >= c) out += instances(i); i += 1 }
      out.result()
    }

    /** The exact peel of the t-core: each step removes the node of least
      * current degree inside C_t, the least id among equals. At t = 0 the
      * t-core is every node, and the isolated ones come first in id order.
      */
    def peel(t: Int): PeelResult = {
      val from = firstOfCore(t)
      val isolated = if (t == 0) n - k else 0
      val size = isolated + k - from
      val order = new Array[Int](size)
      val suffix = new Array[Long](size)
      var live = instancesFrom(t).toLong
      var j = 0
      if (isolated > 0) {
        var v = 0
        while (v < n) {
          if (local(v) == 0) { suffix(j) = live; order(j) = v; j += 1 }
          v += 1
        }
      }
      // Degrees inside C_t. At most one push per incidence inside it.
      val deg = new Array[Int](k)
      var pushes = 0
      var p = from
      while (p < k) {
        val l = byCore(p)
        var c = start(l)
        while (c < start(l + 1)) { if (level(incident(c)) >= t) deg(l) += 1; c += 1 }
        pushes += deg(l)
        p += 1
      }
      // The rest by key deg << 32 | id. Degrees only fall, so a node's entry
      // is current iff its degree still equals the key's; stale ones are
      // skipped when they surface.
      val heap = new LongHeap(k - from + pushes)
      p = from
      while (p < k) { val l = byCore(p); heap.add(deg(l).toLong << 32 | ids(l)); p += 1 }
      heap.heapify()
      val removed = new Array[Boolean](k)
      val dead = new Array[Boolean](instances.length)
      while (j < size) {
        var l = -1
        while (l < 0) {
          val top = heap.poll()
          val cand = local(top.toInt) - 1
          if (!removed(cand) && (top >>> 32) == deg(cand)) l = cand
        }
        suffix(j) = live
        removed(l) = true
        order(j) = ids(l); j += 1
        var c = start(l)
        while (c < start(l + 1)) {
          val i = incident(c)
          if (level(i) >= t && !dead(i)) {
            dead(i) = true
            live -= 1
            val s = instances(i); var x = 0
            while (x < s.length) {
              val w = local(s(x)) - 1
              if (!removed(w)) { deg(w) -= 1; heap.push(deg(w).toLong << 32 | s(x)) }
              x += 1
            }
          }
          c += 1
        }
      }
      PeelResult(this, order, suffix)
    }
  }

  /** The peel of a t-core (see [[Cores.peel]]): `order(k)` is the k-th
    * removed node and `suffixInstances(k)` the number of live instances of
    * the t-core just before removing it.
    */
  final case class PeelResult(cores: Cores, order: Array[Int], suffixInstances: Array[Long]) {

    /** Best suffix density (numerator, denominator) and the earliest suffix
      * start reaching it; (0, 1) and 0 without instances.
      */
    private def best: (Long, Long, Int) = {
      var bn = 0L; var bd = 1L; var b = 0
      var k = 0
      while (k < order.length) {
        val num = suffixInstances(k); val den = (order.length - k).toLong
        if (num * bd > bn * den) { bn = num; bd = den; b = k }
        k += 1
      }
      (bn, bd, b)
    }

    /** Best suffix density as an exact rational (numerator, denominator). */
    def bestDensity: (Long, Long) = { val (bn, bd, _) = best; (bn, bd) }

    /** The nodes of the earliest best-density suffix (the peeling's
      * candidate), in removal order.
      */
    def bestSuffixNodes: Array[Int] = order.drop(best._3)

    /** Start in `order` of the §III-C heuristic nucleus, for the whole peel
      * (t = 0): the union of the innermost core C_kMax and every suffix
      * strictly denser than it, which is the suffix from the returned index.
      *
      *   - The peel removes nodes in non-decreasing core number (see
      *     [[HyperPeeling]]), so C_kMax is the last |C_kMax| entries of
      *     `order`: a suffix, starting at len − |C_kMax|.
      *   - Every other member is a suffix too, and suffixes are nested, so
      *     their union is the earliest of them: the earlier of C_kMax's start
      *     and the first suffix strictly denser than C_kMax.
      *
      * Without instances the nucleus is empty: the start is len.
      */
    def heuristicStart: Int = {
      val len = order.length
      val inner = len - cores.innermostSize
      if (inner == len) len
      else {
        val num = suffixInstances(inner); val den = (len - inner).toLong
        var k = 0
        while (k < inner && suffixInstances(k) * den <= num * (len - k)) k += 1
        k
      }
    }
  }

  /** Core numbers of `n` nodes against `instances` (node-id sets, ids < n). */
  def decompose(n: Int, instances: Array[Array[Int]]): Cores = {
    val nInst = instances.length
    val local = new Array[Int](n)
    var k = 0
    var i = 0
    while (i < nInst) {
      val s = instances(i); var j = 0
      while (j < s.length) { if (local(s(j)) == 0) { k += 1; local(s(j)) = k }; j += 1 }
      i += 1
    }
    val ids = new Array[Int](k)
    val deg = new Array[Int](k)
    i = 0
    while (i < nInst) {
      val s = instances(i); var j = 0
      while (j < s.length) { val l = local(s(j)) - 1; ids(l) = s(j); deg(l) += 1; j += 1 }
      i += 1
    }
    val start = new Array[Int](k + 1)
    var l = 0
    var maxDeg = 0
    while (l < k) { start(l + 1) = start(l) + deg(l); maxDeg = math.max(maxDeg, deg(l)); l += 1 }
    val incident = new Array[Int](start(k))
    val fill = java.util.Arrays.copyOf(start, k)
    i = 0
    while (i < nInst) {
      val s = instances(i); var j = 0
      while (j < s.length) { val l = local(s(j)) - 1; incident(fill(l)) = i; fill(l) += 1; j += 1 }
      i += 1
    }

    // Bucket sort by degree: byCore(bin(d) until bin(d + 1)) holds the
    // nodes of current degree d, and pos(l) is l's place in byCore.
    val bin = new Array[Int](maxDeg + 2)
    l = 0
    while (l < k) { bin(deg(l) + 1) += 1; l += 1 }
    var d = 0
    while (d <= maxDeg) { bin(d + 1) += bin(d); d += 1 }
    val byCore = new Array[Int](k)
    val pos = new Array[Int](k)
    l = 0
    while (l < k) { pos(l) = bin(deg(l)); byCore(pos(l)) = l; bin(deg(l)) += 1; l += 1 }
    d = maxDeg
    while (d > 0) { bin(d) = bin(d - 1); d -= 1 }
    bin(0) = 0
    // Remove nodes in bucket order. Removing l (degree d, its core number)
    // kills its live instances; each other node w of those, with degree
    // above d, drops one degree: it moves to the front of its bucket, which
    // then starts one place later. Degrees never fall below d, so deg ends
    // as the core numbers.
    val level = new Array[Int](nInst)
    java.util.Arrays.fill(level, -1)
    var p = 0
    while (p < k) {
      val v = byCore(p)
      val dv = deg(v)
      var c = start(v)
      while (c < start(v + 1)) {
        val ii = incident(c)
        if (level(ii) < 0) {
          level(ii) = dv
          val s = instances(ii); var j = 0
          while (j < s.length) {
            val w = local(s(j)) - 1
            val dw = deg(w)
            if (dw > dv) {
              val pw = pos(w); val pf = bin(dw); val u = byCore(pf)
              if (u != w) { byCore(pw) = u; pos(u) = pw; byCore(pf) = w; pos(w) = pf }
              bin(dw) += 1
              deg(w) = dw - 1
            }
            j += 1
          }
        }
        c += 1
      }
      p += 1
    }
    new Cores(n, instances, local, ids, start, incident, deg, byCore, level)
  }

  /** Peel all `n` nodes against `instances` (node-id sets, ids < n): the
    * whole min-degree order, the t = 0 case of [[Cores.peel]].
    */
  def peel(n: Int, instances: Array[Array[Int]]): PeelResult = decompose(n, instances).peel(0)

  /** Binary min-heap of primitive longs with a fixed capacity. */
  private final class LongHeap(capacity: Int) {
    private val a = new Array[Long](capacity)
    private var size = 0

    /** Append without ordering; call [[heapify]] before the first poll. */
    def add(x: Long): Unit = { a(size) = x; size += 1 }

    def heapify(): Unit = {
      var k = (size >>> 1) - 1
      while (k >= 0) { siftDown(k, a(k)); k -= 1 }
    }

    def push(x: Long): Unit = {
      var k = size
      size += 1
      var done = false
      while (k > 0 && !done) {
        val p = (k - 1) >>> 1
        if (a(p) <= x) done = true
        else { a(k) = a(p); k = p }
      }
      a(k) = x
    }

    def poll(): Long = {
      val top = a(0)
      size -= 1
      if (size > 0) siftDown(0, a(size))
      top
    }

    private def siftDown(k0: Int, x: Long): Unit = {
      var k = k0
      var done = false
      while (!done && 2 * k + 1 < size) {
        var c = 2 * k + 1
        if (c + 1 < size && a(c + 1) < a(c)) c += 1
        if (x <= a(c)) done = true
        else { a(k) = a(c); k = c }
      }
      a(k) = x
    }
  }
}
