package repro.mining

import scala.collection.mutable

/** Top-k closed frequent itemset mining with a minimum itemset size `l_m`
  * (the contract of TFP [46], used by Algorithm 5 line 6).
  *
  * Implementation: LCM/CHARM-style depth-first search over *tidsets*
  * (transaction-id bitsets). A closed itemset is uniquely determined by its
  * tidset (the closure is the set of items present in all those
  * transactions), so the DFS explores tidsets, deduplicates on them, and
  * raises the minimum support dynamically once k closed sets of size >=
  * `l_m` are known — TFP's pruning strategy. Support is anti-monotone along
  * the DFS, so raised-minsup pruning is safe. Within the closed family no
  * proper superset shares a support, so the closedness constraint of
  * Problem 3 holds by construction.
  */
object TFP {

  final case class ClosedSet(items: Set[Int], support: Int)

  /** The top-k closed sets, and whether the search stopped at `maxVisited`
    * tidsets, so that the top-k may be partial.
    */
  final case class Mined(topK: Seq[ClosedSet], truncated: Boolean)

  def topK(
      transactions: Seq[Set[Int]],
      k: Int,
      lm: Int,
      maxVisited: Int = 2000000,
  ): Seq[ClosedSet] = mine(transactions, k, lm, maxVisited).topK

  def mine(
      transactions: Seq[Set[Int]],
      k: Int,
      lm: Int,
      maxVisited: Int = 2000000,
  ): Mined = {
    val none = Mined(Seq.empty, truncated = false)
    if (transactions.isEmpty || k <= 0) return none
    val tx = transactions.toIndexedSeq
    val nTx = tx.size
    val items: Array[Int] = tx.flatten.distinct.sorted.toArray
    if (items.isEmpty) return none
    val itemIdx = items.zipWithIndex.toMap

    // Tidset per item.
    val tidOf = Array.fill(items.length)(new java.util.BitSet(nTx))
    for (t <- 0 until nTx; it <- tx(t)) tidOf(itemIdx(it)).set(t)

    // Items in descending support order: high-support closures first, so
    // the dynamic minsup rises quickly.
    val order = items.indices.sortBy(i => -tidOf(i).cardinality).toArray

    val visited = mutable.HashSet.empty[java.util.BitSet]
    val results = mutable.ArrayBuffer.empty[ClosedSet]
    // Supports of recorded size->=lm sets, for minsup raising.
    val bigSupports = mutable.PriorityQueue.empty[Int](Ordering[Int].reverse) // min-heap
    var minsup = 1

    def closureOf(tid: java.util.BitSet): Array[Int] = {
      val out = mutable.ArrayBuilder.make[Int]
      var i = 0
      while (i < items.length) {
        // item i is in the closure iff tid ⊆ tidOf(i)
        val diff = tid.clone().asInstanceOf[java.util.BitSet]
        diff.andNot(tidOf(i))
        if (diff.isEmpty) out += i
        i += 1
      }
      out.result()
    }

    def record(closureIdx: Array[Int], support: Int): Unit = {
      if (closureIdx.length >= lm && support > 0) {
        results += ClosedSet(closureIdx.map(items).toSet, support)
        bigSupports.enqueue(support)
        if (bigSupports.size > k) bigSupports.dequeue()
        if (bigSupports.size == k) minsup = math.max(minsup, bigSupports.head)
      }
    }

    var truncated = false

    // Every call brings an unvisited tidset, so a refused call is a cut.
    def dfs(tid: java.util.BitSet): Unit = {
      if (visited.size >= maxVisited) { truncated = true; return }
      if (!visited.add(tid)) return
      val support = tid.cardinality
      if (support < minsup) return
      val closure = closureOf(tid)
      record(closure, support)
      val inClosure = closure.toSet
      var oi = 0
      while (oi < order.length) {
        val i = order(oi)
        if (!inClosure.contains(i)) {
          val newTid = tid.clone().asInstanceOf[java.util.BitSet]
          newTid.and(tidOf(i))
          val sup = newTid.cardinality
          if (sup >= minsup && sup > 0 && !visited.contains(newTid)) dfs(newTid)
        }
        oi += 1
      }
    }

    val root = new java.util.BitSet(nTx)
    root.set(0, nTx)
    dfs(root)

    val top = results
      .filter(_.support >= minsup)
      .sortBy(c => (-c.support, -c.items.size, c.items.toSeq.sorted.mkString(",")))
      .take(k)
      .toSeq
    Mined(top, truncated)
  }

  /** Estimated containment probability of `u` in the transaction multiset
    * (the γ-hat of Algorithm 5's analysis).
    */
  def gammaHat(transactions: Seq[Set[Int]], u: Set[Int]): Double =
    if (transactions.isEmpty) 0.0
    else transactions.count(t => u.subsetOf(t)).toDouble / transactions.size

  /** Brute-force closed frequent itemsets (for tests): all itemsets X with
    * support >= 1 and no proper superset of equal support.
    */
  def bruteClosed(transactions: Seq[Set[Int]], lm: Int): Seq[ClosedSet] = {
    val items = transactions.flatten.distinct.sorted
    val all = mutable.Map.empty[Set[Int], Int]
    def rec(idx: Int, cur: Set[Int]): Unit = {
      if (idx == items.length) {
        if (cur.size >= lm) {
          val sup = transactions.count(t => cur.subsetOf(t))
          if (sup > 0) all(cur) = sup
        }
      } else {
        rec(idx + 1, cur)
        rec(idx + 1, cur + items(idx))
      }
    }
    rec(0, Set.empty)
    all.toSeq
      .filter { case (s, sup) =>
        !all.exists { case (s2, sup2) => s2 != s && s.subsetOf(s2) && sup2 == sup }
      }
      .map { case (s, sup) => ClosedSet(s, sup) }
  }
}
