package repro.core

import java.util.Arrays
import org.apache.spark.HashPartitioner
import org.apache.spark.rdd.RDD
import scala.collection.mutable
import scala.util.hashing.MurmurHash3

/** Algorithm 1's aggregation (lines 5–8): the count, or the weight sum, of
  * every node-set key over the rows of all worlds, and the `k` keys of
  * highest total, in one Spark job with one shuffle and no SQL.
  *
  *  - Map side: each task appends its rows, as they come, to one of R
  *    packed byte blocks, chosen by a hash of the key, so all rows of a key
  *    meet in one reducer; a block that fills is shipped and a new one
  *    begun. Most keys occur once (96% of them on Karate), so counting them
  *    in the task first would cost more than it saves.
  *  - Reduce side: a reducer reads its blocks as they arrive and adds each
  *    row to its key's entry in a hash table, so it holds its distinct keys,
  *    not its rows (2^m enumerated worlds give many rows and few keys). It
  *    returns its number of distinct keys, its capped rows and its local top
  *    `k`, whose ties it breaks in unsigned byte order of the keys.
  *  - Driver: it adds the counts and merges the R lists.
  *
  * Each key lives in one reducer, so the top `k`, the number of distinct
  * keys and the capped count are exact. A weight sum adds each map task's
  * rows of a key in row order (a reducer gets one task's blocks in the
  * order the task shipped them), then the tasks' sums in task order: the
  * same bits on every run.
  */
private[core] object SetTally {

  /** `top`: at most `k` keys with their totals, by total descending, then key
    * ascending in unsigned byte order. `distinct` counts the keys, and
    * `capped` the rows flagged capped.
    */
  final case class Tally(top: Seq[(Array[Byte], Double)], distinct: Long, capped: Long)

  /** The bytes a map task gathers for one reducer before it ships them. A
    * task holds one buffer per reducer, so this bounds its buffers to about
    * R · 2 · 64 KiB however many rows its worlds give.
    */
  private val blockBytes = 1 << 16

  /** Rows of one map task for one reducer: `rows` records of a key length
    * (unsigned LEB128), the key, and its weight (8 bytes) when the rows are
    * weighted. `capped` is the task's capped count in its last block for
    * reducer 0, and 0 in the others.
    *
    * A class, and not an (Int, Array[Byte]) pair: Spark shuffles pairs of
    * primitives and primitive arrays with Kryo, and on JDK 17 Kryo fails to
    * start ("Unable to create serializer ... java.nio.HeapByteBuffer")
    * unless the JVM opens `java.nio`, which a plain `java -cp` run and the
    * forked test JVM do not. A class of its own takes the default Java
    * serializer, which writes the bytes as one array.
    */
  final class Block(val task: Int, val rows: Int, val capped: Long, val bytes: Array[Byte]) extends Serializable

  /** A growable byte buffer: one per reducer in each map task. */
  private final class Buffer {
    var bytes = new Array[Byte](256)
    var size = 0
    var rows = 0

    private def room(n: Int): Unit =
      if (size + n > bytes.length) bytes = Arrays.copyOf(bytes, math.max(2 * bytes.length, size + n))

    def put(key: Array[Byte], weight: Double, weighted: Boolean): Unit = {
      room(5 + key.length + 8)
      var l = key.length
      while (l >= 0x80) { bytes(size) = (l & 0x7f | 0x80).toByte; size += 1; l >>>= 7 }
      bytes(size) = l.toByte; size += 1
      System.arraycopy(key, 0, bytes, size, key.length); size += key.length
      if (weighted) {
        val v = java.lang.Double.doubleToRawLongBits(weight)
        var s = 56
        while (s >= 0) { bytes(size) = (v >>> s).toByte; size += 1; s -= 8 }
      }
      rows += 1
    }

    /** The rows so far as a block, emptying the buffer. */
    def ship(task: Int, capped: Long): Block = {
      val b = new Block(task, rows, capped, Arrays.copyOf(bytes, size))
      size = 0
      rows = 0
      b
    }
  }

  /** The tally of `rows`, each a (key, capped, weight): keys are counted,
    * or their weights summed when `weighted`, through `buckets` reducers.
    */
  def apply(rows: RDD[(Array[Byte], Boolean, Double)], k: Int, weighted: Boolean, buckets: Int): Tally = {
    require(k >= 0 && buckets > 0, s"k=$k and buckets=$buckets")
    val tasks = rows.getNumPartitions
    val blocks = rows.mapPartitionsWithIndex { (task, it) =>
      val out = Array.fill(buckets)(new Buffer)
      var capped = 0L
      val full = it.flatMap { case (key, c, w) =>
        val r = bucket(key, buckets)
        out(r).put(key, w, weighted)
        if (c) capped += 1
        if (out(r).size >= blockBytes) Iterator.single((r, out(r).ship(task, 0L))) else Iterator.empty
      }
      // The last blocks are made only once the rows have run out, so the
      // capped count is the task's.
      full ++ Iterator.range(0, buckets).map(r => (r, out(r).ship(task, if (r == 0) capped else 0L)))
    }
    val parts = blocks.partitionBy(new HashPartitioner(buckets))
      .mapPartitions(it => Iterator.single(reduce(it.map(_._2), tasks, k, weighted)))
      .collect()
    val top = parts.flatMap(_.top).sortWith { case ((a, x), (b, y)) => x > y || x == y && Arrays.compareUnsigned(a, b) < 0 }
    Tally(top.take(k).toSeq, parts.map(_.distinct).sum, parts.map(_.capped).sum)
  }

  /** The reducer of `key`, of `buckets`. */
  private[core] def bucket(key: Array[Byte], buckets: Int): Int = Math.floorMod(hash(key, 0, key.length), buckets)

  /** One reducer's tally of its blocks, from `tasks` map tasks. */
  private def reduce(blocks: Iterator[Block], tasks: Int, k: Int, weighted: Boolean): Tally = {
    val table = new Table(if (weighted) tasks else 1)
    var capped = 0L
    for (b <- blocks) {
      capped += b.capped
      val buf = b.bytes
      var p = 0
      var i = 0
      while (i < b.rows) {
        var l = 0
        var s = 0
        while ({ val x = buf(p); p += 1; l |= (x & 0x7f) << s; s += 7; x < 0 }) ()
        val from = p
        p += l
        if (weighted) {
          var v = 0L
          val stop = p + 8
          while (p < stop) { v = v << 8 | (buf(p) & 0xff); p += 1 }
          table.add(buf, from, from + l, b.task, java.lang.Double.longBitsToDouble(v))
        } else table.add(buf, from, p, 0, 1.0)
        i += 1
      }
    }

    // The best `k` (total, entry) pairs, best first: higher total, then
    // smaller key. The heap's head, its largest, is the worst kept.
    val rank: Ordering[(Double, Int)] = (x, y) => {
      val c = java.lang.Double.compare(y._1, x._1)
      if (c != 0) c else table.compareKeys(x._2, y._2)
    }
    val heap = mutable.PriorityQueue.empty[(Double, Int)](rank)
    var e = 0
    while (e < table.size) {
      val total = table.total(e)
      if (heap.size < k ||
          k > 0 && (total > heap.head._1 || total == heap.head._1 && table.compareKeys(e, heap.head._2) < 0)) {
        heap.enqueue((total, e))
        if (heap.size > k) heap.dequeue()
      }
      e += 1
    }
    Tally(heap.toSeq.sorted(rank).map { case (total, entry) => (table.key(entry), total) }, table.size, capped)
  }

  /** The distinct keys of one reducer, by open addressing, each with a sum
    * per column: one column per map task for weight sums, since a reducer
    * gets the tasks' blocks in any order, and one column for counts.
    */
  private final class Table(columns: Int) {
    private var arena = new Array[Byte](1 << 12)
    private var used = 0
    private var from = new Array[Int](256)
    private var to = new Array[Int](256)
    private var hashes = new Array[Int](256)
    private var sums = new Array[Double](256 * columns)
    var size = 0
    // Slot -> entry, -1 if empty; at most half full.
    private var bits = 9
    private var slots = Array.fill(1 << bits)(-1)

    // A reducer's keys share their hash modulo R, so the slot comes from
    // the high bits of a multiplicative rehash.
    private def slot(h: Int) = (h * 0x9E3779B9) >>> (32 - bits)

    def add(buf: Array[Byte], lo: Int, hi: Int, column: Int, w: Double): Unit = {
      val h = hash(buf, lo, hi)
      var s = slot(h)
      var e = slots(s)
      while (e >= 0 && !(hashes(e) == h && Arrays.equals(arena, from(e), to(e), buf, lo, hi))) {
        s = (s + 1) & (slots.length - 1)
        e = slots(s)
      }
      if (e < 0) {
        e = insert(buf, lo, hi, h)
        if (2 * size > slots.length) grow() else slots(s) = e
      }
      sums(e * columns + column) += w
    }

    private def insert(buf: Array[Byte], lo: Int, hi: Int, h: Int): Int = {
      if (size == from.length) {
        val n = 2 * size
        from = Arrays.copyOf(from, n); to = Arrays.copyOf(to, n); hashes = Arrays.copyOf(hashes, n)
        sums = Arrays.copyOf(sums, n * columns)
      }
      if (used + hi - lo > arena.length) arena = Arrays.copyOf(arena, math.max(2 * arena.length, used + hi - lo))
      System.arraycopy(buf, lo, arena, used, hi - lo)
      from(size) = used; used += hi - lo; to(size) = used
      hashes(size) = h
      size += 1
      size - 1
    }

    /** Doubles the slots and places every entry again. */
    private def grow(): Unit = {
      bits += 1
      slots = Array.fill(1 << bits)(-1)
      for (e <- 0 until size) {
        var s = slot(hashes(e))
        while (slots(s) >= 0) s = (s + 1) & (slots.length - 1)
        slots(s) = e
      }
    }

    /** Entry `e`'s total: its columns added in column order. */
    def total(e: Int): Double = {
      var t = 0.0
      var c = 0
      while (c < columns) { t += sums(e * columns + c); c += 1 }
      t
    }

    def compareKeys(e: Int, f: Int): Int = Arrays.compareUnsigned(arena, from(e), to(e), arena, from(f), to(f))

    def key(e: Int): Array[Byte] = Arrays.copyOfRange(arena, from(e), to(e))
  }

  /** A 32-bit hash of buf[from, to): MurmurHash3 over its bytes, four at a
    * time, big-endian.
    */
  private[core] def hash(buf: Array[Byte], from: Int, to: Int): Int = {
    var h = 0x5e7a11
    var p = from
    while (p + 4 <= to) {
      h = MurmurHash3.mix(h, (buf(p) & 0xff) << 24 | (buf(p + 1) & 0xff) << 16 | (buf(p + 2) & 0xff) << 8 | buf(p + 3) & 0xff)
      p += 4
    }
    var last = 0
    while (p < to) { last = last << 8 | (buf(p) & 0xff); p += 1 }
    MurmurHash3.finalizeHash(MurmurHash3.mixLast(h, last), to - from)
  }
}
