package repro.perfbench

import java.lang.management.ManagementFactory
import java.util.SplittableRandom
import java.util.concurrent.Executors
import org.apache.spark.sql.SparkSession
import repro.exp.Harness
import scala.collection.mutable.ArrayBuffer
import scala.concurrent.duration.Duration
import scala.concurrent.{Await, ExecutionContext, ExecutionContextExecutorService, Future}
import scala.util.Try

/** Closed-loop client: one query at a time through `MPDS.run` / `NDS.run`
  * on a `Harness.localSpark` session, up to `MaxChecked` answers checked
  * afterwards against a single-threaded reference.
  *
  *   --workload <name> --seed <n> --seconds <s> --trace <0|1>
  *
  * `--trace 0` prints the end-to-end metrics. `--trace 1` is a separate
  * run that alternates untraced queries with queries seen by a
  * [[QueryListener]], times each layer single-threaded through its public
  * function, and prints the per-layer metrics. The last stdout line is the
  * JSON result.
  */
object Main {

  /** Session + dataset set-ups per run, each after a full GC: half before
    * the queries, half after them. The first loads Spark's classes (~4.5 s)
    * and is left out; `setup_s` is the median of the rest. Set-up time
    * drifts with the machine's load over seconds, so rounds taken in two
    * windows half a minute apart steady the median more than rounds in one.
    */
  private val SetupRounds = 20
  /** [[settleJit]] polls the JIT's total compilation time at this interval
    * until it stops changing, for at most `SettleMaxMs`.
    */
  private val SettlePollMs = 25L
  private val SettleMaxMs = 2000L
  private val MinTimed = 5
  /** Timed seeds come in blocks of this many and the timed loop ends on a
    * block boundary.
    */
  private val SeedBlock = 2
  private val TimedSeedsRoot = 0x5EEDL
  /** Timed answers checked against the reference: all of them up to this
    * many, else this many spread evenly from the first to the last. A
    * biomine reference costs ~1.8 s of one core, so checking all ~30 would
    * take a quarter of the run.
    */
  private val MaxChecked = 12
  /** Single-threaded layer timing covers the worlds of at least one timed
    * query, and of further ones while under this many seconds.
    */
  private val LayerSeconds = 3.0
  /** Traced runs also count capped worlds over this many of the cold and
    * warm-up queries' seeds, which vary with --seed.
    */
  private val CappedWarmSeeds = 8

  final case class Metric(name: String, value: Double, unit: String)

  def main(argv: Array[String]): Unit = {
    val opts = argv.grouped(2).collect { case Array(k, v) if k.startsWith("--") => k.drop(2) -> v }.toMap
    val w = opts.get("workload").flatMap(Workload.byName).getOrElse {
      System.err.println(s"usage: --workload <${Workload.all.map(_.name).mkString("|")}> --seed <n> --seconds <s> --trace <0|1>")
      sys.exit(2)
    }
    val seed = opts.getOrElse("seed", "1").toLong
    val seconds = opts.getOrElse("seconds", "10").toDouble
    val trace = opts.getOrElse("trace", "0") == "1"

    // Set-up: session creation + dataset generation, repeated; the last
    // session of the first half is the one queried.
    def setUps(rounds: Int) = (1 to rounds).map { _ =>
      SparkSession.getDefaultSession.foreach(_.stop())
      System.gc()
      val t0 = System.nanoTime()
      val spark = Harness.localSpark("perfbench")
      val t1 = System.nanoTime()
      val g = w.data()
      val t2 = System.nanoTime()
      (spark, g, secs(t1 - t0), secs(t2 - t1))
    }
    val firstSetups = setUps(SetupRounds / 2)
    phase("set-up")
    val (spark, g, _, _) = firstSetups.last
    val sc = spark.sparkContext
    val cores = Runtime.getRuntime.availableProcessors
    println(s"workload ${w.name}: ${w.params}; n=${g.n} m=${g.m}; seed=$seed")
    println(s"env: nproc=$cores master=${sc.master} defaultParallelism=${sc.defaultParallelism} " +
      s"spark.sql.shuffle.partitions=${spark.conf.get("spark.sql.shuffle.partitions")} " +
      s"heap=${Runtime.getRuntime.maxMemory >> 20} MB")

    // Every query has its own sampling seed, so no query repeats another.
    // Per-query work varies with the seed (on karate the number of densest
    // sets per query has a CV near 0.4), so timed seeds come in fixed blocks
    // that are the same in every run, --seed only orders each block, and
    // the timed loop ends on a block boundary: runs that time as many
    // queries do the same work. Warm-up seeds are drawn from --seed, so
    // they differ from run to run.
    val order = new scala.util.Random(seed)
    val blocks = new SplittableRandom(TimedSeedsRoot)
    val timedSeeds = Iterator.continually(order.shuffle(Seq.fill(SeedBlock)(blocks.nextLong()))).flatten
    val warmRandom = new SplittableRandom(seed)
    val warmSeeds = ArrayBuffer.empty[Long]
    def warmSeed(): Long = { warmSeeds += warmRandom.nextLong(); warmSeeds.last }
    // Full GC and JIT settling happen outside the timed region.
    var settleMs = 0L
    def query(s: Long): (Double, Try[w.Answer]) = {
      System.gc()
      settleMs += settleJit()
      val t0 = System.nanoTime()
      val a = Try(w.query(spark, g, s))
      (secs(System.nanoTime() - t0), a)
    }

    val (coldS, _) = query(warmSeed())
    // Warm-up by query count, each query preceded by [[settleJit]]. Much of
    // a karate query is driver-side planning and scheduling code that runs
    // a few times per query, so the JIT reaches it by query count, not by
    // time; letting the compiler catch up before every query makes the JIT
    // state after warm-up depend on this count rather than on how much CPU
    // the compiler threads got. Timed without it, karate kept getting
    // faster for over a minute of queries.
    val warm = Seq.fill(w.warmup)(query(warmSeed())._1)
    phase("warm-up")
    println(f"cold query $coldS%.3f s; warm-up ${warm.size} queries: ${warm.map(x => f"$x%.3f").mkString(" ")}")

    // Timed closed loop. Traced runs alternate plain and listened queries.
    final case class Timed(seed: Long, wall: Double, answer: Try[w.Answer], trace: Option[QueryTrace])
    val timed = ArrayBuffer.empty[Timed]
    while (timed.size < MinTimed || timed.map(_.wall).sum < seconds || timed.size % SeedBlock != 0) {
      val s = timedSeeds.next()
      if (trace && timed.size % 2 == 1) {
        val l = new QueryListener
        sc.addSparkListener(l)
        val (wall, a) = query(s)
        val qt = l.finish(sc)
        sc.removeSparkListener(l)
        timed += Timed(s, wall, a, Some(qt))
      } else {
        val (wall, a) = query(s)
        timed += Timed(s, wall, a, None)
      }
    }
    phase("timed")
    println(f"JIT settling before queries: ${settleMs / 1000.0}%.2f s in all")
    // Least of three post-GC readings: one reading now and then misses the
    // collection and reads a near-full heap.
    val heapMb = (1 to 3).map { _ =>
      System.gc()
      ManagementFactory.getMemoryMXBean.getHeapMemoryUsage.getUsed
    }.min / 1048576.0

    // Correctness, outside the timed region: the checked answers against
    // the reference worlds of their seeds, in parallel. A query that threw
    // fails whether it is among the checked ones or not.
    implicit val pool: ExecutionContextExecutorService =
      ExecutionContext.fromExecutorService(Executors.newFixedThreadPool(cores))
    val checkedIx =
      if (timed.size <= MaxChecked) timed.indices
      else (0 until MaxChecked).map(j => j * (timed.size - 1) / (MaxChecked - 1))
    val judged = (checkedIx ++ timed.indices.filter(timed(_).answer.isFailure)).distinct.map(timed)
    val checks = judged.map { t =>
      Future {
        val ref = w.referenceWorlds(g, t.seed)
        (t.answer.map(a => w.matches(a, ref)).getOrElse(false), ref.count(_.capped))
      }.recover { case _ => (false, 0) }
    }
    val warmChecks = (if (trace) warmSeeds.take(CappedWarmSeeds).toSeq else Nil)
      .map(s => Future(w.referenceWorlds(g, s).count(_.capped)))
    val outcome = Await.result(Future.sequence(checks), Duration.Inf)
    val warmCapped = Await.result(Future.sequence(warmChecks), Duration.Inf).sum
    pool.shutdown()
    phase("check")
    val warmSetups = firstSetups.tail ++ setUps(SetupRounds / 2)
    phase("set-up again")
    println(f"set-up: cold round ${firstSetups.head._3 + firstSetups.head._4}%.3f s; ${warmSetups.size} warm rounds (s): " +
      warmSetups.map(x => f"${x._3 + x._4}%.4f").mkString(" "))
    val passed = outcome.count(_._1)
    val failed = judged.size - passed
    val capped = outcome.map(_._2).sum + warmCapped

    val plain = timed.filter(_.trace.isEmpty).map(_.wall).toSeq
    val worldsPerS = w.theta * plain.size / plain.sum
    println(f"timed: ${timed.size} queries, ${judged.size} judged ($passed passed, ${timed.count(_.answer.isFailure)} threw); " +
      f"capped worlds ${outcome.map(_._2).sum}; plain query_s.p50 ${median(plain)}%.4f s over ${plain.size} samples: " +
      timed.map(t => f"${t.wall}%.3f").mkString(" "))
    val (firstHalf, secondHalf) = plain.splitAt(plain.size / 2)
    println(f"trend: plain query median ${median(firstHalf)}%.4f s in the first half, ${median(secondHalf)}%.4f s in the second")

    if (trace) println(s"capped worlds over the first $CappedWarmSeeds cold and warm-up queries' seeds: $warmCapped")

    val metrics =
      if (!trace) Seq(
        Metric("worlds_per_s", worldsPerS, "1/s"),
        Metric("query_s.p50", median(plain), "s"),
        Metric("setup_s", median(warmSetups.map(x => x._3 + x._4)), "s"),
        Metric("retained_heap_mb", heapMb, "MB"),
        Metric("passed_ratio", passed.toDouble / judged.size, "ratio"),
      )
      else {
        val lt = new LayerTimes
        val t0 = System.nanoTime()
        for (t <- timed.iterator.takeWhile(_ => lt.worlds == 0 || secs(System.nanoTime() - t0) < LayerSeconds))
          w.referenceWorlds(g, t.seed, Some(lt))
        val traced = timed.flatMap(t => t.trace.map(t.wall -> _)).toSeq
        def perQuery(f: QueryTrace => Double): Double = traced.map(x => f(x._2)).sum / traced.size
        val stWorldsPerS = lt.worlds / secs(lt.sampleNs + lt.buildNs + lt.kernelNsPerWorld.sum)
        val mined = timed.flatMap(_.answer.toOption).flatMap(w.mining).toSeq
        val perWorld = (ns: Long) => ns / 1e6 / lt.worlds
        Seq(
          Metric("data.dataset_s", median(warmSetups.map(_._4)), "s"),
          Metric("data.session_s", median(warmSetups.map(_._3)), "s"),
          Metric("uncertain.sample_ms_per_world", perWorld(lt.sampleNs), "ms"),
          Metric("uncertain.build_ms_per_world", perWorld(lt.buildNs), "ms"),
          Metric("graph.kernel_ms_per_world", perWorld(lt.kernelNsPerWorld.sum), "ms"),
          Metric("graph.kernel_ms.p90", percentile(lt.kernelNsPerWorld.map(_ / 1e6).toSeq, 0.9), "ms"),
          Metric("graph.densest_sets_per_world", lt.densestSets.toDouble / lt.worlds, "count"),
          Metric("graph.capped_worlds", capped.toDouble, "count"),
          Metric("baseline.st_worlds_per_s", stWorldsPerS, "1/s"),
          Metric("core.jobs_per_query", perQuery(_.jobs), "count"),
          Metric("core.tasks_per_query", perQuery(_.tasks), "count"),
          Metric("core.shuffle_write_kb_per_query", perQuery(_.shuffleWriteBytes / 1024.0), "KB"),
          Metric("core.result_kb_per_query", perQuery(_.resultBytes / 1024.0), "KB"),
          Metric("core.driver_s_per_query",
            traced.map { case (wall, q) => math.max(0.0, wall - q.jobCoveredMs / 1000.0) }.sum / traced.size, "s"),
          Metric("core.task_run_s_per_query", perQuery(_.taskRunMs / 1000.0), "s"),
          Metric("core.task_gc_s_per_query", perQuery(_.taskGcMs / 1000.0), "s"),
          Metric("core.task_skew", perQuery(_.fanOutSkew), "ratio"),
          Metric("core.parallel_efficiency", worldsPerS / (cores * stWorldsPerS), "ratio"),
          Metric("core.cold_query_s", coldS, "s"),
          Metric("mining.tfp_ms_per_query", if (mined.isEmpty) 0.0 else mined.map(_._1 / 1e6).sum / mined.size, "ms"),
          Metric("mining.tx_avg_size", if (mined.isEmpty) 0.0 else mined.map(_._2).sum / mined.size, "count"),
          Metric("trace.overhead_ratio", median(traced.map(_._1)) / median(plain), "ratio"),
        )
      }
    phase("metrics")
    SparkSession.getDefaultSession.foreach(_.stop())

    for (m <- metrics) println(f"${m.name}%-34s ${m.value}%14.6f ${m.unit}")
    val body = metrics.map(m => s""""${m.name}": {"value": ${num(m.value)}, "unit": "${m.unit}"}""").mkString(", ")
    println(s"""{"correct": ${failed == 0}, "attempted": ${timed.size}, "failed": $failed, "metrics": {$body}}""")
  }

  /** Waits until the JIT's total compilation time stops changing over one
    * poll interval (at most `SettleMaxMs`), so that compilations a query
    * triggered finish before the next one; returns the ms waited.
    */
  private def settleJit(): Long = {
    val jit = ManagementFactory.getCompilationMXBean
    val t0 = System.nanoTime()
    var last = -1L
    while (jit.getTotalCompilationTime != last && System.nanoTime() - t0 < SettleMaxMs * 1000000L) {
      last = jit.getTotalCompilationTime
      Thread.sleep(SettlePollMs)
    }
    (System.nanoTime() - t0) / 1000000L
  }

  private def phase(name: String): Unit =
    System.err.println(f"perfbench: $name done at ${ManagementFactory.getRuntimeMXBean.getUptime / 1000.0}%.1f s")

  private def secs(ns: Long): Double = ns / 1e9

  private def median(xs: Seq[Double]): Double = percentile(xs, 0.5)

  /** Linear interpolation between closest ranks. */
  private def percentile(xs: Seq[Double], q: Double): Double = {
    val s = xs.sorted
    val pos = q * (s.size - 1)
    val lo = pos.toInt
    if (lo + 1 >= s.size) s(lo) else s(lo) + (pos - lo) * (s(lo + 1) - s(lo))
  }

  private def num(x: Double): String = if (x.isNaN || x.isInfinite) "null" else x.toString
}
