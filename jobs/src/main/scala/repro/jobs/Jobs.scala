package repro.jobs

import org.apache.spark.sql.SparkSession
import repro.exp._

/** spark-submit entrypoint for the evaluation tables, one table per run:
  *
  *   spark-submit --class repro.jobs.TableJob repro-jobs.jar table-i
  *
  * Each table prints the same rows the corresponding bench suite records in
  * EXPERIMENTS.md.
  */
object TableJob {

  private val tables: Map[String, SparkSession => Seq[Harness.Table]] = Map(
    "table-i" -> (s => Seq(TableI.run(s))),
    "table-ii" -> (s => Seq(TableII.run(s))),
    "table-iii" -> (s => Seq(TableIII.run(s))),
    "table-iv" -> (s => Seq(TableIV.run(s))),
    "tables-v-vi" -> { s => val (v, vi) = TablesVVI.run(s); Seq(v, vi) },
    "table-vii" -> (s => Seq(TableVII.run(s))),
    "table-viii" -> (s => Seq(TableVIII.run(s))),
    "table-ix" -> (s => Seq(TableIX.run(s))),
    "table-x" -> (s => Seq(TableX.run(s))),
    "table-xi" -> (s => Seq(TableXI.run(s))),
    "table-xii" -> (s => Seq(TableXII.run(s))),
    "table-xiii" -> (s => Seq(SamplingTables.tableXIII(s))),
    "table-xiv" -> (s => Seq(SamplingTables.tableXIV(s))),
    "table-xv" -> (s => Seq(TableXV.run(s))),
  )

  def main(args: Array[String]): Unit = {
    val name = args.headOption.getOrElse("")
    val table = tables.getOrElse(name, {
      System.err.println(s"usage: TableJob <name>; names: ${tables.keys.toSeq.sorted.mkString(" ")}")
      sys.exit(2)
    })
    val spark = Harness.localSpark(name)
    try table(spark).foreach(t => println(t.render))
    finally spark.stop()
  }
}
