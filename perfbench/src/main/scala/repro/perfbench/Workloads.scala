package repro.perfbench

import org.apache.spark.sql.SparkSession
import repro.core.{DensityNotion, MPDS, NDS}
import repro.data.Datasets
import repro.mining.TFP
import repro.uncertain.{UncertainGraph, WorldSampler}
import scala.collection.mutable

/** Wall time of each single-threaded layer, summed over worlds. */
final class LayerTimes {
  var worlds = 0
  var sampleNs = 0L
  var buildNs = 0L
  val kernelNsPerWorld = scala.collection.mutable.ArrayBuffer.empty[Long]
  var densestSets = 0L
}

/** One benchmark workload: a dataset, a density notion and one public entry
  * point (`MPDS.run` or `NDS.run`), plus the check of its answer against a
  * single-threaded loop over the same public per-world functions.
  */
sealed trait Workload {
  def name: String
  def data: () => UncertainGraph
  def notion: DensityNotion
  def k: Int
  def theta: Int

  /** Warm-up queries after the cold one. Biomine's kernel needs more than
    * karate's planning code; at 10 biomine still trends down a little.
    */
  def warmup: Int

  /** The `allDensest` cap the entry point uses in each world. */
  def cap: Int
  def params: String

  type Answer

  /** One query through the public entry point. */
  def query(spark: SparkSession, g: UncertainGraph, seed: Long): Answer

  /** Does `answer` match the reference worlds of its sampling seed? */
  def matches(answer: Answer, ref: Array[DensityNotion.World]): Boolean

  /** Driver-side mining of one answer, if the workload mines: (TFP wall
    * time in ns, mean size of the transactions mined).
    */
  def mining(answer: Answer): Option[(Long, Double)] = None

  /** The θ worlds of one query, sampled, built and solved in this thread
    * through the same public functions the Spark tasks call.
    */
  final def referenceWorlds(g: UncertainGraph, seed: Long, t: Option[LayerTimes] = None): Array[DensityNotion.World] =
    Array.tabulate(theta) { i =>
      val t0 = System.nanoTime()
      val mask = WorldSampler.MonteCarlo.worldForIndex(g, i.toLong, theta, seed)
      val t1 = System.nanoTime()
      val world = g.world(mask)
      val t2 = System.nanoTime()
      val w = notion.allDensest(world, cap)
      val t3 = System.nanoTime()
      t.foreach { lt =>
        lt.worlds += 1
        lt.sampleNs += t1 - t0
        lt.buildNs += t2 - t1
        lt.kernelNsPerWorld += t3 - t2
        lt.densestSets += w.all.size
      }
      w
    }
}

/** Algorithm 1 at the entry point's default cap (`MPDS.run`'s `capPerWorld`). */
final case class MpdsWorkload(name: String, data: () => UncertainGraph, notion: DensityNotion, k: Int, theta: Int,
    warmup: Int) extends Workload {
  val cap = 100000
  def params = s"MPDS.run notion=${notion.name} k=$k θ=$theta cap=$cap sampler=MC"

  type Answer = MPDS.Result
  def query(spark: SparkSession, g: UncertainGraph, seed: Long): MPDS.Result =
    MPDS.run(spark, g, notion, k, theta, seed = seed)

  /** Tie-robust: every returned τ̂·θ is its set's reference frequency, the
    * sorted top-k frequencies are the reference's, and the candidate count
    * is the reference's number of distinct sets.
    */
  def matches(r: MPDS.Result, ref: Array[DensityNotion.World]): Boolean = {
    def key(nodes: Iterable[Int]): java.util.BitSet = { val b = new java.util.BitSet; nodes.foreach(b.set); b }
    val freq = mutable.HashMap.empty[java.util.BitSet, Long]
    for (w <- ref; s <- w.all) freq.updateWith(key(s))(f => Some(f.getOrElse(0L) + 1))
    val got = r.topK.map(c => (key(c.nodes), math.round(c.tauHat * theta)))
    r.numCandidates == freq.size &&
    got.forall { case (s, f) => freq.get(s).contains(f) } &&
    got.map(_._2).sorted == freq.values.toSeq.sorted(Ordering[Long].reverse).take(k).sorted
  }
}

/** Algorithm 5; `NDS.transactions` asks each world for one witness (cap 1). */
final case class NdsWorkload(name: String, data: () => UncertainGraph, notion: DensityNotion, k: Int, lm: Int, theta: Int,
    warmup: Int) extends Workload {
  val cap = 1
  def params = s"NDS.run notion=${notion.name} k=$k l_m=$lm θ=$theta cap=$cap sampler=MC"

  type Answer = NDS.Result
  def query(spark: SparkSession, g: UncertainGraph, seed: Long): NDS.Result =
    NDS.run(spark, g, notion, k, lm, theta, seed = seed)

  /** Transactions are the per-world `maxSized` sets in world order, and the
    * top-k supports are those of `TFP.topK` on them (supports, not sets, so
    * that ties may resolve either way).
    */
  def matches(r: NDS.Result, ref: Array[DensityNotion.World]): Boolean = {
    val tx = ref.toSeq.map(_.maxSized.toSet)
    val want = TFP.topK(tx.filter(_.nonEmpty), k, lm).map(_.support.toLong).sorted
    r.transactions == tx && r.topK.map(n => math.round(n.gammaHat * theta)).sorted == want
  }

  /** `TFP.topK` on the answer's transactions, as `NDS.run` calls it. */
  override def mining(r: NDS.Result): Option[(Long, Double)] = {
    val tx = r.transactions.filter(_.nonEmpty)
    val t0 = System.nanoTime()
    TFP.topK(tx, k, lm)
    Some((System.nanoTime() - t0, tx.map(_.size).sum.toDouble / math.max(1, tx.size)))
  }
}

object Workload {
  val all: Seq[Workload] = Seq(
    // θ=1280 rather than Tables IV/IX's 320: at 320 a query was mostly
    // Spark's per-job and per-task overhead, and its time doubled when the
    // host stole ~10% of the CPU, where θ=1280 slowed by ~10%.
    MpdsWorkload("karate-mpds-edge", () => Datasets.karate(), DensityNotion.Edge, k = 10, theta = 1280, warmup = 6),
    NdsWorkload("biomine-nds-edge", () => Datasets.biomineLike(), DensityNotion.Edge, k = 10, lm = 8, theta = 160, warmup = 10),
  )

  def byName(name: String): Option[Workload] = all.find(_.name == name)
}
