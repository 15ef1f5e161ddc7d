package repro.exp

import org.apache.spark.sql.SparkSession

/** Shared experiment plumbing: a table is a titled grid of rows that both
  * the bench suites (`bench/`) and the spark-submit entrypoints (`jobs/`)
  * render identically, so EXPERIMENTS.md diffs paper vs. measured rows.
  */
object Harness {

  final case class Table(title: String, header: Seq[String], rows: Seq[Seq[String]]) {
    def render: String = {
      val all = header +: rows
      val widths = header.indices.map(i => all.map(r => r(i).length).max)
      def line(r: Seq[String]) =
        r.zip(widths).map { case (c, w) => c.padTo(w, ' ') }.mkString("| ", " | ", " |")
      val sep = widths.map("-" * _).mkString("|-", "-|-", "-|")
      (Seq(s"== $title ==", line(header), sep) ++ rows.map(line)).mkString("\n")
    }
  }

  def time[A](f: => A): (A, Long) = {
    val t0 = System.nanoTime()
    val a = f
    (a, (System.nanoTime() - t0) / 1000000L)
  }

  def f(x: Double): String = f"$x%.4f"
  def f3(x: Double): String = f"$x%.3f"
  def secs(ms: Long): String = f"${ms / 1000.0}%.2f"

  /** The local SparkSession of jobs, benches and tests. */
  def localSpark(app: String): SparkSession =
    SparkSession.builder()
      .master(sys.env.getOrElse("SPARK_MASTER", "local[*]"))
      .appName(app)
      .config("spark.ui.enabled", "false")
      .getOrCreate()
}
