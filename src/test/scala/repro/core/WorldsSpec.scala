package repro.core

import java.util.concurrent.atomic.AtomicInteger
import org.apache.spark.scheduler.{SparkListener, SparkListenerEvent, SparkListenerJobStart}
import org.apache.spark.sql.execution.ui.SparkListenerSQLExecutionStart
import repro.SparkSpec
import repro.data.Datasets
import repro.uncertain.{UncertainGraph, WorldSampler}

/** The fan-out over possible worlds: how it slices the world ids into
  * tasks, and that no estimator runs SQL.
  */
class WorldsSpec extends SparkSpec {

  private def fig1 = UncertainGraph.fromEdges(4,
    Seq((0, 1, 0.4), (0, 2, 0.4), (1, 3, 0.7))) // A=0,B=1,C=2,D=3

  test("the fan-out gives each task the world ids spark.range gives it") {
    for (theta <- Seq(1280, 160, 7)) {
      val got = Worlds.Sampled(theta, WorldSampler.MonteCarlo, 1L)
        .flatMap(spark, fig1)((i, _, _) => Iterator.single(i)).glom().collect().map(_.toSeq).toSeq
      val want = spark.range(theta).rdd.glom().collect().map(_.toSeq.map(_.longValue)).toSeq
      assert(got.length == spark.sparkContext.defaultParallelism, s"θ=$theta")
      assert(got == want, s"θ=$theta")
    }
  }

  /** The SQL executions and the jobs that `body` starts. Every start is
    * posted on the listener bus, and a listener sees a queue's events in
    * order, so once it sees the sentinel query run after `body`, it has seen
    * every start before it.
    */
  private def started(body: => Unit): (Int, Int) = {
    val sql = new AtomicInteger
    val jobs = new AtomicInteger
    @volatile var sentinelSeen = false
    def sentinel(p: java.util.Properties) = p != null && p.getProperty("spark.job.description") == "sentinel"
    val listener = new SparkListener {
      override def onJobStart(e: SparkListenerJobStart): Unit = if (!sentinel(e.properties)) jobs.incrementAndGet()
      override def onOtherEvent(event: SparkListenerEvent): Unit = event match {
        case e: SparkListenerSQLExecutionStart =>
          if (e.description == "sentinel") sentinelSeen = true else sql.incrementAndGet()
        case _ =>
      }
    }
    val sc = spark.sparkContext
    sc.addSparkListener(listener)
    try {
      body
      sc.setJobDescription("sentinel")
      try spark.range(1).count()
      finally sc.setJobDescription(null)
      val deadline = System.nanoTime() + 30L * 1000 * 1000 * 1000
      while (!sentinelSeen && System.nanoTime() < deadline) Thread.sleep(10)
      assert(sentinelSeen)
      (sql.get, jobs.get)
    } finally sc.removeSparkListener(listener)
  }

  test("NDS.run, worldStats, estimateTau and estimateGamma run no SQL") {
    val karate = Datasets.karate()
    val sets = Seq(Set(0, 1, 2, 3), Set(32, 33))
    val (sql, _) = started {
      NDS.run(spark, karate, DensityNotion.Edge, k = 3, lm = 2, theta = 64, seed = 61L)
      MPDS.worldStats(spark, karate, DensityNotion.Edge, theta = 64, seed = 79L)
      MPDS.estimateTau(spark, karate, DensityNotion.Edge, sets, theta = 64, seed = 67L)
      MPDS.estimateGamma(spark, karate, DensityNotion.Edge, sets, theta = 64, seed = 71L)
    }
    assert(sql == 0)
  }

  test("MPDS.run and ExactMPDS.topK run no SQL, in one job each") {
    val (sql, jobs) = started {
      MPDS.run(spark, Datasets.karate(), DensityNotion.Edge, k = 10, theta = 64, seed = 73L)
      ExactMPDS.topK(spark, fig1, DensityNotion.Edge, 3)
    }
    assert(sql == 0 && jobs == 2)
  }
}
