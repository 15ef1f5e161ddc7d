package repro.core

/** The key of a node set in DataFrames, a `BinaryType` value: its node ids
  * in ascending order, each as a big-endian 4-byte int. Ids are
  * non-negative, so the keys' unsigned byte order (Spark's order on binary
  * columns) is the lexicographic order of the sorted ids: top-k ties put
  * {2} before {10}, and {1, 3} before {1, 3, 4} before {2}.
  */
object NodeSetKey {

  def of(nodes: Iterable[Int]): Array[Byte] = {
    val ids = nodes.toArray
    java.util.Arrays.sort(ids)
    val key = new Array[Byte](4 * ids.length)
    var i = 0
    while (i < ids.length) {
      val v = ids(i)
      key(4 * i) = (v >>> 24).toByte
      key(4 * i + 1) = (v >>> 16).toByte
      key(4 * i + 2) = (v >>> 8).toByte
      key(4 * i + 3) = v.toByte
      i += 1
    }
    key
  }

  def parse(key: Array[Byte]): Seq[Int] = {
    val b = java.nio.ByteBuffer.wrap(key)
    Seq.fill(key.length / 4)(b.getInt)
  }
}
