package repro.core

/** The key of a node set, as bytes: its node ids in ascending order, each
  * as one length byte L followed by the id's L significant big-endian bytes
  * (L = 0 for id 0, 1 up to 255, …, 4).
  *
  * For non-negative ids a longer code is a larger id, and codes of one
  * length compare as their bytes, so the code preserves the order of ids;
  * its length byte makes it prefix-free. So the keys' unsigned byte order
  * (the order `SetTally` ranks ties in) is the lexicographic order of the
  * sorted ids: top-k ties put {2} before {10}, and {1, 3} before {1, 3, 4}
  * before {2}.
  */
object NodeSetKey {

  /** Significant bytes of a non-negative id. */
  private def length(v: Int): Int = (32 - Integer.numberOfLeadingZeros(v) + 7) >>> 3

  /** The key of the node set whose ids, strictly ascending, are `ids`, as
    * `Densest.Family.sets()` yields them.
    */
  def of(ids: Array[Int]): Array[Byte] = {
    var size = ids.length
    var i = 0
    while (i < ids.length) {
      require(ids(i) >= 0 && (i == 0 || ids(i) > ids(i - 1)), s"node ids must be non-negative and ascending: ${ids.mkString(",")}")
      size += length(ids(i))
      i += 1
    }
    val key = new Array[Byte](size)
    var p = 0
    i = 0
    while (i < ids.length) {
      val v = ids(i)
      var l = length(v)
      key(p) = l.toByte; p += 1
      while (l > 0) { l -= 1; key(p) = (v >>> (8 * l)).toByte; p += 1 }
      i += 1
    }
    key
  }

  def parse(key: Array[Byte]): Seq[Int] = {
    val ids = Seq.newBuilder[Int]
    var p = 0
    while (p < key.length) {
      val end = p + 1 + key(p)
      var v = 0
      p += 1
      while (p < end) { v = v << 8 | (key(p) & 0xff); p += 1 }
      ids += v
    }
    ids.result()
  }
}
