package repro.bench

import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.SynthData
import repro.baselines.{CostEval, FullJoin, RkMeans}
import repro.cluster.{KMeansAlg, Means, Objective}
import repro.core.{CoreConf, FastBatched, RelKClustering}
import repro.join.{AcyclicQuery, GHD, GYO, Relation}

/** One reproduced table: its typed rows and the text it prints. */
final case class Table[R](rows: Seq[R], text: String)

/** Empirical Table 1 (T1-median, T1-means) — workload: many-to-many path
  * join R1(a1,b) ⋈ R2(b,c) ⋈ R3(c,a2); N = 3 x 2000 input tuples,
  * |q(D)| ≈ 50k (~8x blow-up); k = 5, eps = 0.5. All methods run end-to-end
  * (their own relational passes included) and are scored with the exact
  * cost over the full join. Paper-vs-measured: EXPERIMENTS.md.
  *
  * Also the one place the benchmark queries are assembled: [[path]] and
  * [[triangle]] serve every table, and the tests.
  */
object Table1Workload {
  val rows = 2000L
  val nKeys = 400L
  val k = 5
  val conf: CoreConf = CoreConf(epsilon = 0.5, cellsPerSide = 8, sampleSize = 30000,
    heavyFraction = 0.02, seed = 7)

  /** Path join R1(a1,b) ⋈ R2(b,c) ⋈ R3(c,a2): `rows` tuples per relation,
    * `keys` distinct values of b and of c, one data seed per relation.
    */
  def path(spark: SparkSession, rows: Long, keys: Long,
           seeds: (Long, Long, Long) = (100, 200, 300)): AcyclicQuery =
    GYO.joinTree(Seq(
      Relation("r1", cached(SynthData.pathR1(spark, rows, keys, seed = seeds._1))),
      Relation("r2", cached(SynthData.pathR2(spark, rows, keys, keys, seed = seeds._2))),
      Relation("r3", cached(SynthData.pathR3(spark, rows, keys, seed = seeds._3))))).get

  /** Triangle R(a,b) ⋈ S(b,c) ⋈ T(c,a) through its single-bag GHD. */
  def triangle(spark: SparkSession, rows: Long, keys: Long): AcyclicQuery =
    GHD.triangle(
      cached(SynthData.triangleR(spark, rows, keys, seed = 1)),
      cached(SynthData.triangleS(spark, rows, keys, seed = 2)),
      cached(SynthData.triangleT(spark, rows, keys, seed = 3)))

  /** Cached and counted, so data generation stays out of every timing. */
  private def cached(df: DataFrame): DataFrame = {
    val c = df.cache()
    c.count()
    c
  }

  /** T1-median or T1-means: every Table 1 method for `obj` on the path join. */
  def run(spark: SparkSession, obj: Objective, rows: Long = Table1Workload.rows,
          keys: Long = nKeys): Table[Harness.Row] = {
    val out = Harness.table1(path(spark, rows, keys), obj, k, conf)
    val name = if (obj == Means) "means" else "median"
    Table(out, Harness.fmt(
      s"T1-$name path(rows=$rows,keys=$keys) k=$k eps=${conf.epsilon}", out))
  }
}

/** T2-scaleN — the running-time column of Table 1: the NEW algorithm scales
  * with the *input* size N (inputs fixed here) while the two-step baseline
  * scales with |q(D)| (swept via key multiplicity: smaller key domains =>
  * bigger joins).
  */
object ScalingN {
  val rows = 40000L
  val sweep: Seq[Long] = Seq(20000, 6000, 2000, 200) // |q(D)| ~ 1.6e5 .. 1.6e9
  val k = 5
  val conf: CoreConf = CoreConf(epsilon = 0.5, cellsPerSide = 8, sampleSize = 50000, seed = 11)

  final case class Point(nKeys: Long, nJoin: Long, fastSec: Double, baseSec: Double)

  private def release(q: AcyclicQuery): Unit = q.relations.foreach(_.df.unpersist())

  def run(spark: SparkSession, rows: Long = ScalingN.rows,
          sweep: Seq[Long] = ScalingN.sweep): Table[Point] = {
    // untimed warmup: JIT + Spark codegen caches, so point 1 isn't inflated
    locally {
      val wq = Table1Workload.path(spark, 2000, 500)
      RelKClustering.run(wq, k, KMeansAlg(), conf.copy(sampleSize = 5000), FastBatched)
      FullJoin.run(wq, k, KMeansAlg(), seed = conf.seed)
      release(wq)
    }
    val points = sweep.map { nk =>
      val q = Table1Workload.path(spark, rows, nk)
      val (fast, tFast) = Harness.time(RelKClustering.run(q, k, KMeansAlg(), conf, FastBatched))
      val (_, tBase) = Harness.time(
        FullJoin.run(q, k, KMeansAlg(), seed = conf.seed, collectCap = 500000))
      release(q)
      Point(nk, fast.nJoin.toLong, tFast, tBase)
    }
    val lines = points.map(p =>
      f"${p.nKeys}%8d ${p.nJoin}%12d ${p.fastSec}%11.2f ${p.baseSec}%12.2f " +
        f"${p.nJoin.toDouble / (3 * rows)}%8.1f")
    Table(points, (Seq(
      s"== T2-scaleN path(rows=$rows) k=$k, k-means ==",
      f"${"nKeys"}%8s ${"|q(D)|"}%12s ${"NEW-fast_s"}%11s ${"full-join_s"}%12s ${"blowup"}%8s")
      ++ lines).mkString("\n"))
  }
}

/** T3-scaleK — the k-dependence of Table 1: NEW carries k^2 (|X| = k^2 and a
  * k^2-point cross product), rk-means [23] carries k^d grid cells.
  */
object ScalingK {
  val ks: Seq[Int] = Seq(2, 4, 8)
  val conf: CoreConf = CoreConf(epsilon = 0.5, cellsPerSide = 8, sampleSize = 30000, seed = 13)

  final case class Point(k: Int, fastSec: Double, fastRatio: Double, rkSec: Double,
                         rkGrid: Int, rkRatio: Double, baseSec: Double)

  def run(spark: SparkSession, rows: Long = Table1Workload.rows,
          keys: Long = Table1Workload.nKeys, ks: Seq[Int] = ScalingK.ks): Table[Point] = {
    val q = Table1Workload.path(spark, rows, keys)
    def cost(centers: Array[Array[Double]]) = CostEval.cost(q, centers, q.allAttrs, Means)
    val points = ks.map { k =>
      val (fast, tFast) = Harness.time(RelKClustering.run(q, k, KMeansAlg(), conf, FastBatched))
      val (rk, tRk) = Harness.time(RkMeans.run(q, k, KMeansAlg(), seed = conf.seed))
      val (base, tBase) = Harness.time(FullJoin.run(q, k, KMeansAlg(), seed = conf.seed))
      val baseCost = cost(base.centers)
      Point(k, tFast, cost(fast.centers) / baseCost, tRk, rk.gridSize,
        cost(rk.centers) / baseCost, tBase)
    }
    val lines = points.map(p =>
      f"${p.k}%3d ${p.fastSec}%8.2f ${p.fastRatio}%10.3f ${p.rkSec}%8.2f ${p.rkGrid}%8d " +
        f"${p.rkRatio}%9.3f ${p.baseSec}%8.2f")
    Table(points, (Seq(
      s"== T3-scaleK path(rows=$rows,keys=$keys), k-means ==",
      f"${"k"}%3s ${"NEW_s"}%8s ${"NEW_ratio"}%10s ${"rk_s"}%8s ${"rk_grid"}%8s " +
        f"${"rk_ratio"}%9s ${"join_s"}%8s")
      ++ lines).mkString("\n"))
  }
}

/** T4-cyclic — Section 4.2 / Theorem 4.3: the triangle query via its GHD,
  * N^fhw bag materialization + the unchanged acyclic pipeline.
  */
object Cyclic {
  val rows = 20000L
  val nKeys = 600L
  val k = 4
  val conf: CoreConf = CoreConf(epsilon = 0.5, cellsPerSide = 8, sampleSize = 20000, seed = 17)

  final case class Result(nJoin: Long, fastCost: Double, fastSec: Double,
                          baseCost: Double, baseSec: Double) {
    def ratio: Double = fastCost / baseCost
  }

  def run(spark: SparkSession, rows: Long = Cyclic.rows,
          keys: Long = nKeys): Table[Result] = {
    val q = Table1Workload.triangle(spark, rows, keys)
    val (fast, tFast) = Harness.time(RelKClustering.run(q, k, KMeansAlg(), conf, FastBatched))
    val (base, tBase) = Harness.time(FullJoin.run(q, k, KMeansAlg(), seed = conf.seed))
    val r = Result(fast.nJoin.toLong, CostEval.cost(q, fast.centers, q.allAttrs, Means), tFast,
      CostEval.cost(q, base.centers, q.allAttrs, Means), tBase)
    Table(Seq(r), Seq(
      s"== T4-cyclic triangle(rows=$rows,keys=$keys) k=$k, k-means ==",
      s"|triangles|=${r.nJoin}",
      f"NEW-fast:  cost=${r.fastCost}%.4g ratio=${r.ratio}%.3f time=${r.fastSec}%.2f s",
      f"full-join: cost=${r.baseCost}%.4g ratio=1.000 time=${r.baseSec}%.2f s").mkString("\n"))
  }
}
