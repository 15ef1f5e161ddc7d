package repro.uncertain

/** Possible-world samplers (§III-A remark 2, §VI-G): Monte Carlo, a
  * Lazy-Propagation-style sampler [53], and Recursive-Stratified-style
  * sampling [54]. All three draw worlds from the same distribution (MC and
  * LP exactly; RSS by proportional stratification, which is what lowers its
  * variance); Tables XIII–XIV compare their θ at convergence, running time
  * and memory overhead.
  *
  * The API is index-based — `worldForIndex(g, i, theta, seed)` — so a Spark
  * task can materialise world `i` independently of the others.
  */
sealed trait WorldSampler extends Serializable {
  def name: String

  /** Edge-presence mask of sample `i` of a planned run of `theta` samples. */
  def worldForIndex(g: UncertainGraph, i: Long, theta: Int, seed: Long): Array[Boolean]

  /** Auxiliary bookkeeping memory in bytes beyond plain MC (analytic; the
    * paper reports process RSS, which a JVM cannot attribute per strategy).
    */
  def auxiliaryBytes(g: UncertainGraph, theta: Int): Long
}

object WorldSampler {

  /** Independent Bernoulli draw per edge. */
  case object MonteCarlo extends WorldSampler {
    val name = "MC"
    def worldForIndex(g: UncertainGraph, i: Long, theta: Int, seed: Long): Array[Boolean] = {
      val rnd = Rnd.forWorld(seed, i)
      val p = g.prob
      val mask = new Array[Boolean](p.length)
      var e = 0
      while (e < p.length) { mask(e) = rnd.nextDouble() < p(e); e += 1 }
      mask
    }
    def auxiliaryBytes(g: UncertainGraph, theta: Int): Long = 0L
  }

  /** Lazy-Propagation-style sampler: identical world distribution to MC but
    * maintains per-edge visit/hit counters (the bookkeeping that [53] uses
    * to reuse draws across queries) — the memory overhead Table XIII
    * measures. Counters live in a thread-local accumulator per task.
    */
  case object LazyPropagation extends WorldSampler {
    val name = "LP"
    private val visits = new ThreadLocal[Array[Long]]
    def worldForIndex(g: UncertainGraph, i: Long, theta: Int, seed: Long): Array[Boolean] = {
      if (visits.get == null || visits.get.length != g.m) visits.set(new Array[Long](g.m))
      val counters = visits.get
      var e = 0
      while (e < counters.length) { counters(e) += 1; e += 1 }
      MonteCarlo.worldForIndex(g, i, theta, seed)
    }
    def auxiliaryBytes(g: UncertainGraph, theta: Int): Long = 8L * g.m
  }

  /** Recursive-Stratified-style sampling: stratify on the `r` most
    * uncertain edges (probability closest to 1/2). The 2^r strata are
    * allocated samples proportionally to their exact probability; within a
    * stratum the selected edges are fixed and the rest drawn independently.
    * Proportional allocation keeps the estimator unbiased while removing
    * the variance of the stratified edges.
    */
  final case class RecursiveStratified(r: Int = 4) extends WorldSampler {
    val name = "RSS"

    /** The `r` edges of smallest |p − ½|, ties to the lower index, in that
      * order: one pass that keeps the best `r` seen so far sorted.
      */
    private[uncertain] def strataEdges(g: UncertainGraph): Array[Int] = {
      val k = math.min(r, g.m)
      val es = new Array[Int](k)
      val dist = new Array[Double](k)
      var size = 0
      var e = 0
      while (e < g.m) {
        val d = math.abs(g.prob(e) - 0.5)
        if (size < k || (k > 0 && d < dist(k - 1))) {
          var j = math.min(size, k - 1)
          while (j > 0 && dist(j - 1) > d) { es(j) = es(j - 1); dist(j) = dist(j - 1); j -= 1 }
          es(j) = e; dist(j) = d
          if (size < k) size += 1
        }
        e += 1
      }
      es
    }

    /** Stratum of sample index i under proportional allocation. */
    private def stratumOf(g: UncertainGraph, es: Array[Int], i: Long, theta: Int): Long = {
      val k = es.length
      val nStrata = 1 << k
      // Cumulative allocation by stratum probability; sample i falls in the
      // first stratum whose cumulative share exceeds i.
      var acc = 0.0
      var s = 0
      val x = (i + 0.5) / theta
      while (s < nStrata - 1) {
        var pr = 1.0
        for (j <- 0 until k)
          pr *= (if ((s & (1 << j)) != 0) g.prob(es(j)) else 1.0 - g.prob(es(j)))
        acc += pr
        if (x < acc) return s.toLong
        s += 1
      }
      (nStrata - 1).toLong
    }

    def worldForIndex(g: UncertainGraph, i: Long, theta: Int, seed: Long): Array[Boolean] = {
      val es = strataEdges(g)
      val s = stratumOf(g, es, i, theta)
      val fixed = new Array[Boolean](g.m)
      for (e <- es) fixed(e) = true
      val rnd = Rnd.forWorld(seed, i)
      val p = g.prob
      val mask = new Array[Boolean](p.length)
      var e = 0
      while (e < p.length) {
        if (!fixed(e)) mask(e) = rnd.nextDouble() < p(e)
        e += 1
      }
      for (j <- es.indices) mask(es(j)) = (s & (1L << j)) != 0
      mask
    }

    def auxiliaryBytes(g: UncertainGraph, theta: Int): Long = {
      val k = math.min(r, g.m)
      // Stratum table (probability + allocation per stratum) + edge index.
      (16L << k) + 4L * k
    }
  }

  val all: Seq[WorldSampler] = Seq(MonteCarlo, LazyPropagation, RecursiveStratified())
}
