package repro.core

import java.util.concurrent.atomic.AtomicInteger
import org.apache.spark.scheduler.{SparkListener, SparkListenerEvent}
import org.apache.spark.sql.execution.ui.SparkListenerSQLExecutionStart
import repro.SparkSpec
import repro.data.Datasets
import repro.uncertain.{UncertainGraph, WorldSampler}

/** The fan-out over possible worlds: how it slices the world ids into
  * tasks, and that the estimators with no SQL aggregation run no SQL.
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

  test("NDS.run, estimateTau and estimateGamma run no SQL") {
    val karate = Datasets.karate()
    val sets = Seq(Set(0, 1, 2, 3), Set(32, 33))
    // Every SQL execution posts its start on the listener bus; a listener
    // sees a queue's events in order, so once it sees the sentinel query
    // below, it has seen every execution that started before it.
    val started = new AtomicInteger
    @volatile var sentinelSeen = false
    val listener = new SparkListener {
      override def onOtherEvent(event: SparkListenerEvent): Unit = event match {
        case e: SparkListenerSQLExecutionStart =>
          started.incrementAndGet()
          if (e.description == "sentinel") sentinelSeen = true
        case _ =>
      }
    }
    val sc = spark.sparkContext
    sc.addSparkListener(listener)
    try {
      NDS.run(spark, karate, DensityNotion.Edge, k = 3, lm = 2, theta = 64, seed = 61L)
      MPDS.estimateTau(spark, karate, DensityNotion.Edge, sets, theta = 64, seed = 67L)
      MPDS.estimateGamma(spark, karate, DensityNotion.Edge, sets, theta = 64, seed = 71L)
      sc.setJobDescription("sentinel")
      try spark.range(1).count()
      finally sc.setJobDescription(null)
      val deadline = System.nanoTime() + 30L * 1000 * 1000 * 1000
      while (!sentinelSeen && System.nanoTime() < deadline) Thread.sleep(10)
      assert(sentinelSeen)
      assert(started.get == 1)
    } finally sc.removeSparkListener(listener)
  }
}
