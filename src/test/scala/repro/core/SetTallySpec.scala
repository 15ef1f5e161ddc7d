package repro.core

import org.scalacheck.{Gen, Prop, Test}
import repro.SparkSpec
import scala.collection.mutable
import scala.math.Ordering.Double.TotalOrdering
import scala.math.Ordering.Implicits.seqOrdering

object SetTallySpec {

  /** Rows (key, capped, weight) in map-task order, split into `tasks` slices, tallied through
    * `buckets` reducers at `k`.
    */
  final case class Case(rows: Seq[(Array[Byte], Boolean, Double)], tasks: Int, buckets: Int, k: Int)
}

class SetTallySpec extends SparkSpec {
  import SetTallySpec.Case

  /** Keys of short and long node sets (200 ids ≥ 256 take 600 bytes, so a
    * length prefix of two bytes) and of raw bytes, the empty key included.
    */
  private val key: Gen[Array[Byte]] = Gen.frequency(
    (6, Gen.listOf(Gen.choose(0, 80)).map(s => NodeSetKey.of(s.distinct.sorted.toArray))),
    (1, Gen.listOfN(200, Gen.choose(256, 1 << 20)).map(s => NodeSetKey.of(s.distinct.sorted.toArray))),
    (2, Gen.listOf(Gen.choose(Byte.MinValue, Byte.MaxValue)).map(_.toArray)),
  )

  /** Up to 40 distinct keys, each on 1 to 3 rows, so that the k-th count is
    * mostly tied; the rows are shuffled over the map tasks.
    */
  private val tallyCase: Gen[Case] = for {
    keys <- Gen.listOf(key).map(_.take(40).distinctBy(_.toSeq))
    reps <- Gen.listOfN(keys.size, Gen.choose(1, 3))
    flat = keys.zip(reps).flatMap { case (k, r) => Seq.fill(r)(k) }
    capped <- Gen.listOfN(flat.size, Gen.prob(0.1))
    weights <- Gen.listOfN(flat.size, Gen.choose(1e-6, 1.0))
    place <- Gen.listOfN(flat.size, Gen.choose(0.0, 1.0))
    tasks <- Gen.choose(1, 5)
    buckets <- Gen.choose(1, 6)
    k <- Gen.choose(0, keys.size + 2)
  } yield Case(flat.lazyZip(capped).lazyZip(weights).toSeq.zip(place).sortBy(_._2).map(_._1), tasks, buckets, k)

  private def tally(c: Case, weighted: Boolean) =
    SetTally(spark.sparkContext.parallelize(c.rows, c.tasks), c.k, weighted, c.buckets)

  /** The driver-side groupBy: each key's total, ranked by total descending,
    * then key ascending. A weight sum adds each map task's rows in row order,
    * then the tasks' sums in task order (`parallelize` gives task t the rows
    * from t·n/tasks on).
    */
  private def reference(c: Case, weighted: Boolean): Seq[(Seq[Int], Double)] = {
    val n = c.rows.size
    val slices = (0 until c.tasks).map(t => c.rows.slice((t.toLong * n / c.tasks).toInt, ((t + 1L) * n / c.tasks).toInt))
    c.rows.map(_._1.toSeq.map(_ & 0xff)).distinct
      .map { key =>
        val sums = slices.map(_.filter(_._1.toSeq.map(_ & 0xff) == key).foldLeft(0.0)((s, r) => s + (if (weighted) r._3 else 1.0)))
        (key, sums.foldLeft(0.0)(_ + _))
      }
      .sortBy { case (key, total) => (-total, key) }
  }

  private def check(p: Prop): Unit = {
    val r = Test.check(Test.Parameters.default.withMinSuccessfulTests(40).withInitialSeed(20261020L), p)
    assert(r.passed, r.status.toString)
  }

  private def unsignedSeq(top: Seq[(Array[Byte], Double)]) = top.map { case (k, t) => (k.toSeq.map(_ & 0xff), t) }

  test("counts, distinct keys, capped rows and the top-k order equal a driver-side groupBy") {
    var tiesAcrossReducers = 0
    check(Prop.forAll(tallyCase) { c =>
      val want = reference(c, weighted = false)
      val got = tally(c, weighted = false)
      // The k-th total is tied on keys that live in different reducers.
      val kth = want.lift(c.k - 1).map(_._2)
      val tiedBuckets = want.filter(w => kth.contains(w._2))
        .map(w => SetTally.bucket(w._1.map(_.toByte).toArray, c.buckets)).distinct
      if (tiedBuckets.size > 1 && want.count(w => kth.contains(w._2)) > 1) tiesAcrossReducers += 1
      unsignedSeq(got.top) == want.take(c.k) &&
        got.distinct == want.size &&
        got.capped == c.rows.count(_._2)
    })
    assert(tiesAcrossReducers >= 5, s"only $tiesAcrossReducers cases tie at the k-th count across reducers")
  }

  test("keys whose hashes collide are counted apart and ranked in key order") {
    // Pairs of node ids {a, b} whose keys share a 32-bit hash.
    val byHash = mutable.HashMap.empty[Int, Array[Byte]]
    val collisions = for {
      a <- (0 until 1000).iterator
      b <- (a + 1 until 1000).iterator
      key = NodeSetKey.of(Array(a, b))
      other <- byHash.put(SetTally.hash(key, 0, key.length), key)
    } yield Seq(other, key)
    val pairs = collisions.take(3).toSeq
    assert(pairs.size == 3)
    // Each pair's keys tie, and one key of each pair has one more row than the other.
    val rows = pairs.zipWithIndex.flatMap { case (Seq(x, y), j) =>
      Seq.fill(2)((x, j == 0, 0.25)) ++ Seq.fill(2 + j % 2)((y, false, 0.5))
    }
    for (tasks <- Seq(1, 3); k <- Seq(1, 4, 6)) {
      val c = Case(rows, tasks, 2, k)
      for (weighted <- Seq(false, true)) {
        val got = tally(c, weighted)
        assert(unsignedSeq(got.top) == reference(c, weighted).take(k), s"tasks=$tasks k=$k weighted=$weighted")
        assert(got.distinct == 6 && got.capped == 2)
      }
    }
  }

  test("a task's rows for one reducer may fill several blocks") {
    // 600 keys of 200 ids in [256, 2^20] (about 800 bytes each), 5 rows
    // each: about 1.2 MB for one reducer from each of two tasks.
    val rnd = new scala.util.Random(5)
    val keys = Seq.fill(600)(NodeSetKey.of(Seq.fill(200)(256 + rnd.nextInt(1 << 20)).distinct.sorted.toArray))
    val rows = rnd.shuffle(keys.flatMap(key => Seq.fill(5)((key, false, rnd.nextDouble()))))
    for (k <- Seq(3, 600); weighted <- Seq(false, true)) {
      val c = Case(rows, 2, 1, k)
      val got = tally(c, weighted)
      assert(unsignedSeq(got.top) == reference(c, weighted).take(k) && got.distinct == 600, s"k=$k weighted=$weighted")
    }
  }

  test("an empty input tallies to nothing") {
    val c = Case(Seq.empty, 3, 4, 10)
    for (weighted <- Seq(false, true)) assert(tally(c, weighted) == SetTally.Tally(Seq.empty, 0, 0))
  }

  test("weighted sums are the same bits on every run, and add each task's rows in row order") {
    check(Prop.forAll(tallyCase) { c =>
      val (a, b) = (unsignedSeq(tally(c, weighted = true).top), unsignedSeq(tally(c, weighted = true).top))
      val want = reference(c, weighted = true)
      val sums = want.toMap
      // Each sum is the reference's, bit for bit.
      a == b &&
        a.forall { case (key, t) => t == sums(key) } &&
        a == want.take(c.k)
    })
  }
}
