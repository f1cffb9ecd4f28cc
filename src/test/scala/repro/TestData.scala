package repro

import org.apache.spark.sql.SparkSession
import repro.baselines.FullJoin
import repro.bench.Table1Workload
import repro.join.{AcyclicQuery, GYO, Relation, Yannakakis}

/** Shared tiny workloads for the unit-test suites. All cached so repeated
  * actions (and the DuckDB oracle) see identical data.
  */
object TestData {

  /** Path join R1(a1,b) ⋈ R2(b,c) ⋈ R3(c,a2) — many-to-many, |q(D)| ≈ 50k. */
  def pathQuery(spark: SparkSession): AcyclicQuery =
    Table1Workload.path(spark, rows = 500, keys = 50, seeds = (7, 8, 9))

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
