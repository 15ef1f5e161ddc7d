package repro.graph

import org.scalatest.funsuite.AnyFunSuite
import scala.util.Random

class DensestSpec extends AnyFunSuite {

  for (q <- 2 to 4) {
    test(s"weighted $q-node instances: all densest subgraphs match brute force") {
      val rnd = new Random(4000L + q)
      for (trial <- 0 until 40) {
        val n = q + rnd.nextInt(9 - q)
        // Random node sets, drawn with replacement so sets repeat, with
        // weights 1 to 5. As instances each is listed `weight` times, and
        // the engine groups the copies into one weighted instance group.
        val drawn = Array.fill(1 + rnd.nextInt(8))(rnd.shuffle((0 until n).toList).take(q).sorted.toArray)
        val weights = Array.fill(drawn.length)(1L + rnd.nextInt(5))
        val inst = drawn.indices.toArray.flatMap(i => Array.fill(weights(i).toInt)(drawn(i)))
        val r = Densest.allDensest(n, inst, Int.MaxValue)
        val (bn, bd, all) = BruteForce.allInstanceDensest(n, inst)
        val ctx = s"trial $trial: n=$n instances=${inst.map(_.mkString("{", ",", "}")).mkString(" ")}"
        assert(r.num == bn && r.den == bd, s"$ctx: got ${r.num}/${r.den} want $bn/$bd")
        assert(!r.capped, ctx)
        assert(r.all.map(_.toSet).toSet == all && r.all.size == all.size, ctx)
        assert(Densest.family(n, inst).sets().map(_.toSeq).toSeq == r.all.map(_.toSeq), ctx)
        assert(r.maxSized.toSet == all.flatten, ctx)
        // The Dinkelbach step alone, on the drawn sets and their weights.
        val opt = Densest.maxDensity(drawn, weights, (0 until n).toArray)
        assert(opt.num == bn && opt.den == bd, ctx)
        val w = opt.witness.toSet
        assert(BruteForce.instancesInside(inst, w).toLong * bd == bn * w.size, ctx)
      }
    }
  }
}
