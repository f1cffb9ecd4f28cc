package repro

import org.apache.spark.sql.SparkSession
import repro.baselines.FullJoin
import repro.join.{AcyclicQuery, GYO, Relation, Yannakakis}

/** Shared tiny workloads for the unit-test suites. All cached so repeated
  * actions (and the DuckDB oracle) see identical data.
  */
object TestData {

  /** Path join R1(a1,b) ⋈ R2(b,c) ⋈ R3(c,a2) — many-to-many, |q(D)| ≈ 50k. */
  def pathQuery(spark: SparkSession, rows: Long = 500, nKeysB: Long = 50,
                nKeysC: Long = 50, seed: Long = 7): AcyclicQuery = {
    val r1 = SynthData.pathR1(spark, rows, nKeysB, seed).cache()
    val r2 = SynthData.pathR2(spark, rows, nKeysB, nKeysC, seed + 1).cache()
    val r3 = SynthData.pathR3(spark, rows, nKeysC, seed + 2).cache()
    GYO.joinTree(Seq(Relation("r1", r1), Relation("r2", r2), Relation("r3", r3))).get
  }

  /** TPC-H-lite FK join at tiny scale (|q(D)| = |lineitem|). */
  def tpchQuery(spark: SparkSession, sf: Double = 0.001): AcyclicQuery = {
    val rels = SynthData.tpchJoinRelations(spark, sf).map {
      case (n, df) => Relation(n, df.cache())
    }
    GYO.joinTree(rels).get
  }

  /** Ground truth: the materialized join as driver-side points, columns in
    * q.allAttrs order. Only for tiny queries.
    */
  def materializePts(q: AcyclicQuery): Array[Array[Double]] =
    Yannakakis.materialize(q).collect().map(FullJoin.toPt)

  /** The DuckDB FROM/WHERE clause of the path join. */
  val pathJoinSql: String =
    "FROM r1, r2, r3 WHERE r1.b = r2.b AND r2.c = r3.c"
}
