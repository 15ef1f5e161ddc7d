package repro.graph

import scala.collection.mutable

/** Generic "instance peeling" over a graph: an *instance* is a small node set
  * (an edge, an h-clique, or a ψ-instance). Peeling repeatedly removes the
  * node contained in the fewest live instances. This single substrate yields:
  *
  *   - Charikar's peeling lower bound for edge density [2] (instances=edges),
  *   - the peeling method of [19]/[5] for clique/pattern density (Alg 2/4 line 1),
  *   - (k,h)-core and (k,ψ)-core membership (Alg 2/4 line 2, Definition 7),
  *   - the heuristic of §III-C's remark (innermost core + denser suffixes).
  */
object HyperPeeling {

  /** Result of a full peel of `n` nodes against `instances`.
    *
    * `order(k)` is the k-th removed node, `suffixInstances(k)` the number of
    * live instances just before removing it, and `coreNumber(v)` the usual
    * monotone core number (max over prefixes of degree-at-removal).
    */
  final case class PeelResult(
      n: Int,
      order: Array[Int],
      coreNumber: Array[Int],
      suffixInstances: Array[Long],
  ) {

    /** Best suffix density as an exact rational (numerator, denominator);
      * (0, 1) for an instance-free graph.
      */
    def bestDensity: (Long, Long) = {
      var bn = 0L; var bd = 1L
      var k = 0
      while (k < n) {
        val num = suffixInstances(k); val den = (n - k).toLong
        if (num * bd > bn * den) { bn = num; bd = den }
        k += 1
      }
      (bn, bd)
    }

    /** Node mask of the best-density suffix (the peeling's candidate). */
    def bestSuffixNodes: Array[Boolean] = {
      val (bn, bd) = bestDensity
      var k = 0
      var best = 0
      while (k < n) {
        if (suffixInstances(k) * bd == bn * (n - k).toLong) { best = k; k = n }
        else k += 1
      }
      val keep = new Array[Boolean](n)
      var i = best
      while (i < n) { keep(order(i)) = true; i += 1 }
      keep
    }

    /** Mask of the (k,·)-core: nodes with core number >= k. */
    def coreAtLeast(k: Long): Array[Boolean] = coreNumber.map(_.toLong >= k)

    /** Maximum core number. */
    def kMax: Int = if (n == 0) 0 else coreNumber.max

    /** Mask of the innermost core (core number == kMax). */
    def innermost: Array[Boolean] = { val km = kMax; coreNumber.map(_ == km) }

    /** §III-C heuristic: the innermost core plus every peel suffix strictly
      * denser than it, as node masks (densest first by density).
      */
    def heuristicDenseSubgraphs: Seq[Array[Boolean]] = {
      val inner = innermost
      val innerCount = inner.count(identity)
      // Density of the innermost core suffix: find the first peel step whose
      // remaining node set is exactly the innermost core.
      val innerStart = n - innerCount
      val innerNum = if (innerStart < n) suffixInstances(innerStart) else 0L
      val innerDen = math.max(1L, innerCount.toLong)
      val out = mutable.ArrayBuffer.empty[(Array[Boolean], Long, Long)]
      out += ((inner, innerNum, innerDen))
      var k = 0
      while (k < n) {
        val num = suffixInstances(k); val den = (n - k).toLong
        if (num * innerDen > innerNum * den) {
          val keep = new Array[Boolean](n)
          var i = k
          while (i < n) { keep(order(i)) = true; i += 1 }
          out += ((keep, num, den))
        }
        k += 1
      }
      out.sortBy { case (_, num, den) => -num.toDouble / den }.map(_._1).toSeq
    }
  }

  /** Peel all `n` nodes against `instances` (node-id sets, ids < n). Each
    * step removes the node of least current degree, the least id among
    * equals.
    */
  def peel(n: Int, instances: Array[Array[Int]]): PeelResult = {
    val nInst = instances.length
    val deg = new Array[Int](n)
    var i = 0
    while (i < nInst) {
      val s = instances(i); var j = 0
      while (j < s.length) { deg(s(j)) += 1; j += 1 }
      i += 1
    }
    // Node → instance incidence: the instances of v are
    // incident(start(v) until start(v + 1)), in instance order.
    val start = new Array[Int](n + 1)
    var v = 0
    while (v < n) { start(v + 1) = start(v) + deg(v); v += 1 }
    val incident = new Array[Int](start(n))
    val fill = java.util.Arrays.copyOf(start, n)
    i = 0
    while (i < nInst) {
      val s = instances(i); var j = 0
      while (j < s.length) { incident(fill(s(j))) = i; fill(s(j)) += 1; j += 1 }
      i += 1
    }
    val alive = Array.fill(nInst)(true)
    val removed = new Array[Boolean](n)
    val order = new Array[Int](n)
    val coreNumber = new Array[Int](n)
    val suffix = new Array[Long](n)
    var live = nInst.toLong
    var k = 0
    // Nodes of degree 0 come first, in id order, and never change.
    v = 0
    while (v < n) {
      if (deg(v) == 0) { suffix(k) = live; removed(v) = true; order(k) = v; k += 1 }
      v += 1
    }
    // The rest by key deg << 32 | v. Degrees only fall, so a node's entry
    // is current iff its degree still equals the key's; stale ones are
    // skipped when they surface. At most one push per incidence.
    val heap = new LongHeap(n - k + incident.length)
    v = 0
    while (v < n) { if (deg(v) > 0) heap.add(deg(v).toLong << 32 | v); v += 1 }
    heap.heapify()
    var core = 0
    while (k < n) {
      v = -1
      while (v < 0) {
        val top = heap.poll()
        val cand = top.toInt
        if (!removed(cand) && (top >>> 32) == deg(cand)) v = cand
      }
      suffix(k) = live
      core = math.max(core, deg(v))
      coreNumber(v) = core
      removed(v) = true
      order(k) = v; k += 1
      var c = start(v)
      while (c < start(v + 1)) {
        val i = incident(c)
        if (alive(i)) {
          alive(i) = false
          live -= 1
          val s = instances(i); var j = 0
          while (j < s.length) {
            val w = s(j)
            if (!removed(w)) { deg(w) -= 1; heap.push(deg(w).toLong << 32 | w) }
            j += 1
          }
        }
        c += 1
      }
    }
    PeelResult(n, order, coreNumber, suffix)
  }

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
