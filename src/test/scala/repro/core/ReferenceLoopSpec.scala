package repro.core

import repro.SparkSpec
import repro.data.Datasets
import repro.uncertain.{Rnd, WorldSampler}
import scala.math.Ordering.Implicits.seqOrdering

/** Every Spark estimator against a driver-side loop over the same public
  * per-world functions (`worldForIndex` → `world` → `allDensest`), with
  * exact equality: sampling is deterministic in (seed, world), so the
  * Spark path must reproduce the loop bit for bit.
  */
class ReferenceLoopSpec extends SparkSpec {

  private val karate = Datasets.karate()
  private val theta = 64
  private val seed = 4242L
  // Low enough that some karate worlds have more densest subgraphs.
  private val cap = 50

  /** Karate's sampled worlds in order, each with its `allDensest` result. */
  private def worlds(notion: DensityNotion, sampler: WorldSampler, cap: Int) =
    (0 until theta).map { i =>
      val world = karate.world(sampler.worldForIndex(karate, i.toLong, theta, seed))
      (world, notion.allDensest(world, cap))
    }

  for ((sampler, allPerWorld) <- Seq(
      (WorldSampler.MonteCarlo, true),
      (WorldSampler.RecursiveStratified(), true),
      (WorldSampler.MonteCarlo, false))) {
    test(s"MPDS.run equals the reference loop (${sampler.name}, allPerWorld=$allPerWorld, capped worlds)") {
      val ref = worlds(DensityNotion.Edge, sampler, cap).map(_._2)
      val kept = ref.zipWithIndex.map { case (w, i) =>
        if (allPerWorld || w.all.isEmpty) w.all
        else Seq(w.all(Rnd.forWorld(seed ^ 0x5DEECE66DL, i.toLong).nextInt(w.all.size)))
      }
      val freq = kept.flatten.groupBy(_.toSeq.sorted).map { case (s, v) => s -> v.size }
      // Ties break in numeric order of the sorted ids.
      val want = freq.toSeq.sortBy { case (s, f) => (-f, s) }.take(10)
        .map { case (s, f) => (s, f.toDouble / theta) }

      val r = MPDS.run(spark, karate, DensityNotion.Edge, k = 10, theta = theta, sampler = sampler,
        seed = seed, allPerWorld = allPerWorld, capPerWorld = cap)
      assert(r.topK.map(c => (c.nodes, c.tauHat)) == want)
      assert(r.numCandidates == freq.size)
      assert(r.cappedWorlds == ref.count(_.capped))
      assert(r.cappedWorlds > 0)
    }
  }

  test("NDS.transactions are the reference maximum-sized sets in world order") {
    val ref = worlds(DensityNotion.Edge, WorldSampler.MonteCarlo, 1)
    for (heuristic <- Seq(false, true)) {
      val want = ref.map { case (world, opt) =>
        (if (heuristic) DensityNotion.Edge.heuristicDense(world) else opt.maxSized).toSet
      }
      val tx = NDS.transactions(spark, karate, DensityNotion.Edge, theta, seed = seed, heuristic = heuristic)
      assert(tx == want, s"heuristic=$heuristic")
    }
  }

  test("estimateTau and estimateGamma equal the reference hit counts") {
    val notion = DensityNotion.Clique(3)
    val ref = worlds(notion, WorldSampler.MonteCarlo, 1)
    // The DDS is listed twice: a repeated set must score like its first copy.
    val dds = DDS.nodes(karate, notion)
    val sets = Seq(dds, ref.head._2.maxSized.toSet, Set(0, 1, 2), Set.empty[Int], dds)
    val tauHits = sets.map(u => ref.count { case (world, opt) =>
      val (num, den) = notion.densityOf(world, u)
      num > 0 && num * opt.den == opt.num * den
    })
    val gammaHits = sets.map(u => ref.count { case (_, opt) => u.nonEmpty && u.subsetOf(opt.maxSized.toSet) })
    assert(tauHits.exists(_ > 0) && gammaHits.exists(_ > 0))
    val tau = MPDS.estimateTau(spark, karate, notion, sets, theta, seed = seed)
    val gamma = MPDS.estimateGamma(spark, karate, notion, sets, theta, seed = seed)
    assert(tau == tauHits.map(_.toDouble / theta))
    assert(gamma == gammaHits.map(_.toDouble / theta))
  }

  test("worldStats rows are the reference per-world counts") {
    val ref = worlds(DensityNotion.Edge, WorldSampler.MonteCarlo, cap).map(_._2)
    val rows = MPDS.worldStats(spark, karate, DensityNotion.Edge, theta, seed = seed, capPerWorld = cap)
    assert(rows == ref.zipWithIndex.map { case (w, i) => MPDS.WorldStat(i.toLong, w.all.size.toLong, w.capped) })
  }
}
