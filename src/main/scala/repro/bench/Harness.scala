package repro.bench

import repro.baselines._
import repro.cluster._
import repro.core._
import repro.join.{AcyclicQuery, LocalJoinIndex}
import scala.util.Random

/** Shared benchmark harness: runs every Table 1 method end-to-end (its own
  * relational passes included), scores all centers with the exact Spark-side
  * cost over the full join, and renders the table rows recorded in
  * EXPERIMENTS.md. The table runners in `Tables.scala` build on it.
  */
object Harness {

  final case class Row(method: String, cost: Double, ratio: Double,
                       timeSec: Double, note: String)

  def time[A](f: => A): (A, Double) = {
    val t0 = System.nanoTime()
    val a = f
    (a, (System.nanoTime() - t0) / 1e9)
  }

  def fmt(title: String, rows: Seq[Row]): String = {
    val header = f"${"method"}%-28s ${"cost"}%14s ${"ratio"}%8s ${"time_s"}%9s  note"
    val lines = rows.map(r =>
      f"${r.method}%-28s ${r.cost}%14.4g ${r.ratio}%8.3f ${r.timeSec}%9.2f  ${r.note}")
    (s"== $title ==" +: header +: lines).mkString("\n")
  }

  private def gammaFor(obj: Objective): GammaAlg =
    obj match { case Means => KMeansAlg(); case Median => KMedianAlg() }

  /** Largest relation on which the deterministic Algorithm 1 runs: its
    * k^(2d+2) N running time makes it feasible only on small workloads —
    * that slowness is itself one of Table 1's claims.
    */
  private val SlowMaxRows = 5000L

  /** One empirical Table 1 block: all methods for one objective on one
    * workload. Algorithm 1 runs, on a coarser grid (4 cells per side), only
    * when no relation of `q` has more than [[SlowMaxRows]] tuples.
    */
  def table1(q: AcyclicQuery, obj: Objective, k: Int, conf: CoreConf): Seq[Row] = {
    val gamma = gammaFor(obj)
    val attrs = q.allAttrs

    // reference: the two-step baseline (materialize + cluster)
    val (base, tBase) = time(FullJoin.run(q, k, gamma, seed = conf.seed))
    val baseCost = CostEval.cost(q, base.centers, attrs, obj)

    def score(name: String, centers: Array[Array[Double]], t: Double, note: String): Row = {
      val c = CostEval.cost(q, centers, attrs, obj)
      Row(name, c, c / baseCost, t, note)
    }

    val rows = scala.collection.mutable.ArrayBuffer.empty[Row]

    val (fast, tFast) = time(RelKClustering.run(q, k, gamma, conf, FastBatched))
    rows += score("NEW-fast (Alg3+Alg2)", fast.centers, tFast,
      s"|q(D)|=${fast.nJoin.toLong} coreset<=${fast.maxCoresetSize} rU=${f(fast.rU)}")

    val (fastD, tFastD) = time(RelKClustering.run(q, k,
      (obj match { case Means => KMeansAlg(discrete = true)
                   case Median => KMedianAlg(discrete = true) }),
      conf, FastBatched, discrete = true))
    rows += score("NEW-fast discrete", fastD.centers, tFastD, "centers from q(D)")

    if (q.relations.forall(_.df.count() <= SlowMaxRows)) {
      val slowConf = conf.copy(cellsPerSide = 4)
      val (slow, tSlow) = time(RelKClustering.run(q, k, gamma, slowConf, SlowDeterministic))
      rows += score("NEW-slow (Alg3+Alg1)", slow.centers, tSlow,
        s"deterministic, cellsPerSide=${slowConf.cellsPerSide}")
    }

    if (obj == Means) {
      val (rk, tRk) = time(RkMeans.run(q, k, gamma, conf.seed))
      rows += score("rk-means [Curtin 23]", rk.centers, tRk, s"grid=${rk.gridSize}")

      val (pp, tPp) = time {
        val idx = LocalJoinIndex.build(q)
        val sample = idx.sampleUniform(conf.sampleSize, new Random(conf.seed))
        RelKMeansPP.run(sample, idx.n, k, gamma, conf.seed)
      }
      rows += score("rel-k-means++ [Moseley 21]", pp.centers, tPp, s"coreset=${pp.coresetSize}")
    }

    val (uni, tUni) = time {
      val idx = LocalJoinIndex.build(q)
      val sample = idx.sampleUniform(conf.sampleSize, new Random(conf.seed))
      UniformCoreset.run(sample, idx.n, k, gamma, conf.seed)
    }
    rows += score("uniform-sample [Chen 22]", uni, tUni, s"M=${conf.sampleSize}")

    rows += Row("full-join (2-step)", baseCost, 1.0, tBase,
      s"join=${base.joinSize} clustered=${base.clusteredRows}")
    rows.toSeq
  }

  private def f(x: Double): String = f"$x%.4g"
}
