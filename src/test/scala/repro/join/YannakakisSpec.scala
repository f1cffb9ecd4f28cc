package repro.join

import org.apache.spark.sql.functions._
import repro.{Oracle, SparkSpec, TestData}

class YannakakisSpec extends SparkSpec {
  import spark.implicits._

  private lazy val path = TestData.pathQuery(spark)
  private lazy val tpch = TestData.tpchQuery(spark)
  private def pathTables = path.relations.map(r => r.name -> r.df)

  test("countJoin matches DuckDB on the path join") {
    val cnt = Yannakakis.countJoin(path)
    Oracle.assertEquivalent(
      Seq(cnt).toDF("cnt"),
      s"SELECT COUNT(*) AS cnt ${TestData.pathJoinSql}",
      pathTables: _*)
  }

  test("countJoin matches DuckDB on the TPC-H-lite FK join") {
    val cnt = Yannakakis.countJoin(tpch)
    Oracle.assertEquivalent(
      Seq(cnt).toDF("cnt"),
      "SELECT COUNT(*) AS cnt FROM lineitem, orders, customer " +
        "WHERE lineitem.okey = orders.okey AND orders.ckey = customer.ckey",
      tpch.relations.map(r => r.name -> r.df): _*)
  }

  test("countJoin is invariant under re-rooting") {
    def total(root: String) = Yannakakis.countsByCarry(path.rooted(root)).head.getLong(0)
    val c1 = total("r1")
    val c2 = total("r2")
    val c3 = total("r3")
    assert(c1 == c2 && c2 == c3)
  }

  test("index histograms of b and c match DuckDB per-value participation counts") {
    val index = LocalJoinIndex.build(path)
    for (a <- Seq("b", "c")) {
      Oracle.assertEquivalent(
        index.histogram(a).toSeq.toDF(a, "cnt").withColumn("cnt", col("cnt").cast("long")),
        s"SELECT CAST(r2.$a AS DOUBLE) AS $a, COUNT(*) AS cnt " +
          s"${TestData.pathJoinSql} GROUP BY r2.$a",
        pathTables: _*)
    }
  }

  test("fullReduce removes exactly the dangling tuples") {
    val reduced = Yannakakis.fullReduce(path)
    // r1 tuples surviving = those with b appearing in the (r2 semi r3) side
    val expected =
      "SELECT DISTINCT CAST(r1.a1 AS DOUBLE) AS a1, CAST(r1.b AS DOUBLE) AS b " +
        "FROM r1, r2, r3 WHERE r1.b = r2.b AND r2.c = r3.c"
    Oracle.assertEquivalent(reduced.relation("r1").df.distinct(), expected, pathTables: _*)
  }

  test("fullReduce preserves the join result count") {
    val reduced = Yannakakis.fullReduce(path)
    assert(Yannakakis.countJoin(reduced) == Yannakakis.countJoin(path))
  }

  test("fullReduce leaves no dangling tuple (each tuple joins)") {
    val reduced = Yannakakis.fullReduce(path)
    // carry a row id: one count per r1 tuple that joins
    val r1 = reduced.relation("r1").df.withColumn("cc_id", monotonically_increasing_id())
    val rc = Yannakakis.countsByCarry(reduced.withDfs(Map("r1" -> r1)).rooted("r1"))
    // after a full reduce, every r1 tuple participates in >= 1 join result
    assert(rc.where(col(Yannakakis.Cnt) <= 0).isEmpty)
    assert(rc.count() == reduced.relation("r1").df.count())
  }

  test("materialize matches DuckDB row-for-row (projected)") {
    val m = Yannakakis.materialize(path)
      .groupBy("a1", "a2", "b", "c").agg(count(lit(1)).as("cnt"))
    Oracle.assertEquivalent(
      m,
      "SELECT CAST(r1.a1 AS DOUBLE) AS a1, CAST(r3.a2 AS DOUBLE) AS a2, " +
        "CAST(r1.b AS DOUBLE) AS b, CAST(r2.c AS DOUBLE) AS c, COUNT(*) AS cnt " +
        s"${TestData.pathJoinSql} GROUP BY r1.a1, r3.a2, r1.b, r2.c",
      pathTables: _*)
  }

  test("countsByCarry matches DuckDB grouped counts") {
    // carry a derived bucket of a1 and of a2 through the counting pass
    val annotated = path.withDfs(Map(
      "r1" -> path.relation("r1").df.withColumn("cc_b1", floor(col("a1") / 25).cast("int")),
      "r3" -> path.relation("r3").df.withColumn("cc_b2", floor(col("a2") / 25).cast("int"))
    ))
    val got = Yannakakis.countsByCarry(annotated.rooted("r2"))
      .withColumnRenamed(Yannakakis.Cnt, "cnt")
    Oracle.assertEquivalent(
      got,
      "SELECT CAST(FLOOR(CAST(r1.a1 AS DOUBLE)/25) AS INT) AS cc_b1, " +
        "CAST(FLOOR(CAST(r3.a2 AS DOUBLE)/25) AS INT) AS cc_b2, COUNT(*) AS cnt " +
        s"${TestData.pathJoinSql} GROUP BY 1, 2",
      pathTables: _*)
  }

  test("countsByCarry with no carry columns returns the total count") {
    val df = Yannakakis.countsByCarry(path.rooted("r1"))
    assert(df.columns.toSeq == Seq(Yannakakis.Cnt))
    assert(df.head.getLong(0) == Yannakakis.countJoin(path))
  }

  test("counting never materializes more rows than the inputs (plan sanity)") {
    // the counting pass must be joins of *aggregated* children: grouped by
    // a carried root-tuple id, its result has at most |root| rows
    val r1 = path.relation("r1").df.withColumn("cc_id", monotonically_increasing_id())
    val rc = Yannakakis.countsByCarry(path.withDfs(Map("r1" -> r1)).rooted("r1"))
    assert(rc.count() <= path.relation("r1").df.count())
  }

  test("empty relation yields empty join and zero count") {
    val empty = path.withDfs(Map("r2" -> path.relation("r2").df.where(lit(false))))
    assert(Yannakakis.countJoin(empty) == 0L)
    val reduced = Yannakakis.fullReduce(empty)
    assert(reduced.relation("r1").df.isEmpty)
    assert(reduced.relation("r3").df.isEmpty)
  }
}
