package repro.core

import org.apache.spark.rdd.RDD
import org.apache.spark.sql.SparkSession
import repro.graph.Graph
import repro.uncertain.{UncertainGraph, WorldSampler}
import scala.reflect.ClassTag

/** The possible worlds an estimator sums over: the θ worlds of a sampled
  * run (Algorithm 1 line 3, Algorithm 5 line 3), each of weight 1, or all
  * 2^m worlds, each of weight Pr(G) (Equation 1; the §VI-H exact baseline).
  * τ(U) is the weight of the worlds where U is densest over `total`.
  */
sealed trait Worlds extends Serializable {

  /** The weight of all worlds: θ when sampled, 1 when enumerated. */
  def total: Double

  protected def ids(g: UncertainGraph): Long

  /** World `i` of `g` with its weight; None if it has probability 0. */
  protected def world(g: UncertainGraph, i: Long): Option[(Double, Graph)]

  /** The rows `f(i, weight, world)` of every world `i`, as one RDD: the
    * only fan-out over possible worlds. It plans no SQL, so a caller that
    * collects, folds or shuffles the rows runs a plain Spark job. `g` is
    * broadcast once, and each task builds its worlds from their ids. The
    * ids are split into `defaultParallelism` slices at the boundaries
    * `(j·n)/P` that `spark.range` uses.
    */
  final def flatMap[A: ClassTag](spark: SparkSession, g: UncertainGraph)(
      f: (Long, Double, Graph) => Iterator[A]): RDD[A] = {
    val sc = spark.sparkContext
    val bc = sc.broadcast(g)
    sc.range(0, ids(g), 1, sc.defaultParallelism)
      .flatMap(i => world(bc.value, i).iterator.flatMap { case (w, gw) => f(i, w, gw) })
  }
}

object Worlds {

  /** Sample `i < theta` of `sampler` at `seed`; every world weighs 1. */
  final case class Sampled(theta: Int, sampler: WorldSampler, seed: Long) extends Worlds {
    def total: Double = theta.toDouble
    protected def ids(g: UncertainGraph): Long = theta.toLong
    protected def world(g: UncertainGraph, i: Long): Option[(Double, Graph)] =
      Some((1.0, g.world(sampler.worldForIndex(g, i, theta, seed))))
  }

  /** Every edge mask `i < 2^m` of positive probability, weighing Pr(G). */
  case object Enumerated extends Worlds {
    def total: Double = 1.0
    protected def ids(g: UncertainGraph): Long = {
      require(g.m <= 30, s"exact enumeration needs 2^m worlds; m=${g.m} is too large")
      1L << g.m
    }
    protected def world(g: UncertainGraph, i: Long): Option[(Double, Graph)] = {
      val present = g.worldOfMask(i)
      val pr = g.worldProbability(present)
      if (pr == 0.0) None else Some((pr, g.world(present)))
    }
  }
}
