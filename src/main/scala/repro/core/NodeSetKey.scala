package repro.core

/** The key of a node set in DataFrames: its node ids in ascending order,
  * joined by commas. Top-k ties break by the order of this string (so
  * "10" sorts before "2"), and the DuckDB oracle compares it as VARCHAR.
  */
object NodeSetKey {
  def of(nodes: Iterable[Int]): String = nodes.toArray.sorted.mkString(",")
  def parse(key: String): Seq[Int] = if (key.isEmpty) Seq.empty else key.split(",").map(_.toInt).toSeq
}
