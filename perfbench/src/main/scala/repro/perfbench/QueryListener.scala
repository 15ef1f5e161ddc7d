package repro.perfbench

import java.util.concurrent.{CountDownLatch, TimeUnit}
import org.apache.spark.SparkContext
import org.apache.spark.scheduler._
import scala.collection.mutable

/** What Spark did for one query, as seen by a `SparkListener` registered
  * for that query alone.
  */
final case class QueryTrace(
    jobs: Int,
    tasks: Int,
    shuffleWriteBytes: Long,
    resultBytes: Long,
    taskRunMs: Long,
    taskGcMs: Long,
    jobCoveredMs: Long,
    fanOutSkew: Double,
)

/** Counts the jobs, tasks and task metrics of one query. Listener events
  * arrive asynchronously, so `finish` runs a marker job after the query and
  * waits until its end event arrives: every event of the query was posted
  * before it, and nothing after it is counted. Events of an earlier query
  * may still be queued when the listener is added, so only tasks of stages
  * that belong to a job whose start it saw are counted.
  */
final class QueryListener extends SparkListener {
  private val markerDone = new CountDownLatch(1)
  private var markerJob = -1
  private var jobs = 0
  private val jobStart = mutable.Map.empty[Int, Long]
  private val jobSpans = mutable.ArrayBuffer.empty[(Long, Long)]
  private val stages = mutable.Set.empty[Int]
  private val taskRunMsByStage = mutable.Map.empty[Int, mutable.ArrayBuffer[Long]]
  private var tasks = 0
  private var shuffleWrite, resultBytes, runMs, gcMs = 0L

  override def onJobStart(e: SparkListenerJobStart): Unit =
    if (markerJob >= 0) ()
    else if (e.properties != null && e.properties.getProperty(QueryListener.MarkerKey) != null) markerJob = e.jobId
    else { jobs += 1; jobStart(e.jobId) = e.time; stages ++= e.stageIds }

  override def onJobEnd(e: SparkListenerJobEnd): Unit =
    if (e.jobId == markerJob) markerDone.countDown()
    else if (markerJob < 0) jobStart.remove(e.jobId).foreach(s => jobSpans += ((s, e.time)))

  override def onTaskEnd(e: SparkListenerTaskEnd): Unit =
    if (markerJob < 0 && e.taskMetrics != null && stages(e.stageId)) {
      val m = e.taskMetrics
      tasks += 1
      shuffleWrite += m.shuffleWriteMetrics.bytesWritten
      resultBytes += m.resultSize
      runMs += m.executorRunTime
      gcMs += m.jvmGCTime
      taskRunMsByStage.getOrElseUpdate(e.stageId, mutable.ArrayBuffer.empty) += m.executorRunTime
    }

  /** Run the marker job, wait for its end event, and summarise. */
  def finish(sc: SparkContext): QueryTrace = {
    sc.setLocalProperty(QueryListener.MarkerKey, "1")
    try sc.parallelize(Seq(0), 1).count()
    finally sc.setLocalProperty(QueryListener.MarkerKey, null)
    require(markerDone.await(60, TimeUnit.SECONDS), "listener bus did not deliver the marker job's end")
    QueryTrace(jobs, tasks, shuffleWrite, resultBytes, runMs, gcMs, unionLength(jobSpans.toSeq), fanOutSkew)
  }

  /** Max over median task run time in the stage with the most task time. */
  private def fanOutSkew: Double =
    if (taskRunMsByStage.isEmpty) 1.0
    else {
      val runs = taskRunMsByStage.values.maxBy(_.sum).sorted
      val mid = runs.size / 2
      val median = if (runs.size % 2 == 1) runs(mid).toDouble else (runs(mid - 1) + runs(mid)) / 2.0
      runs.last / math.max(median, 1.0)
    }

  private def unionLength(spans: Seq[(Long, Long)]): Long = {
    var covered, end = 0L
    for ((s, e) <- spans.sortBy(_._1)) {
      val from = math.max(s, end)
      if (e > from) covered += e - from
      end = math.max(end, e)
    }
    covered
  }
}

object QueryListener {
  val MarkerKey = "perfbench.marker"
}
