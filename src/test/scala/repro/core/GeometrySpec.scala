package repro.core

import org.scalacheck.{Gen, Prop, Properties}
import org.scalacheck.Prop.forAll
import repro.cluster.Weighted

/** Properties of boxes, point-box distances and the exponential grid. */
object GeometryProps extends Properties("Geometry") {

  private val pt: Gen[Array[Double]] =
    Gen.listOfN(2, Gen.chooseNum(-50.0, 50.0)).map(_.toArray)
  private val box: Gen[Box] = for {
    lo <- pt
    w <- Gen.listOfN(2, Gen.chooseNum(0.1, 20.0))
  } yield Box(lo, lo.zip(w).map { case (l, d) => l + d })

  property("pointBoxDist is 0 inside the box") = forAll(box) { b =>
    val mid = b.lo.indices.map(i => (b.lo(i) + b.hi(i)) / 2).toArray
    Geometry.pointBoxDist(mid, b) == 0.0 && b.contains(mid)
  }

  property("pointBoxDist <= dist to any corner") = forAll(pt, box) { (p, b) =>
    val corners = for (i <- Seq(false, true); j <- Seq(false, true))
      yield Array(if (i) b.hi(0) else b.lo(0), if (j) b.hi(1) else b.lo(1))
    val d = Geometry.pointBoxDist(p, b)
    corners.forall(c => d <= Weighted.dist(p, c) + 1e-9)
  }

  property("setBoxDist is the min over the set") = forAll(Gen.nonEmptyListOf(pt), box) {
    (xs, b) =>
      val arr = xs.toArray
      math.abs(Geometry.setBoxDist(arr, b) - arr.map(Geometry.pointBoxDist(_, b)).min) < 1e-9
  }

  property("diam is the main diagonal") = forAll(box) { b =>
    val d = math.sqrt(b.lo.indices.map(i => math.pow(b.hi(i) - b.lo(i), 2)).sum)
    math.abs(b.diam - d) < 1e-9
  }

  property("intersects is symmetric") = forAll(box, box) { (a, b) =>
    a.intersects(b) == b.intersects(a)
  }

  property("covers implies intersects") = forAll(box, box) { (a, b) =>
    !a.covers(b) || a.intersects(b)
  }

  private val grid: Gen[(ExpGrid, Array[Double])] = for {
    c <- pt
    phi <- Gen.chooseNum(0.01, 2.0)
    p <- pt
  } yield (new ExpGrid(c, phi, 8, 24), p)

  property("every point maps to a cell whose box contains it") = forAll(grid) {
    case (g, p) =>
      val key = g.cellOf(0, p)
      g.boxOf(key).contains(p)
  }

  property("ring index respects the L-inf radius") = forAll(grid) { case (g, p) =>
    val r = p.indices.map(i => math.abs(p(i) - g.center(i))).max
    val j = g.ringOf(p)
    // point inside Q_j: r <= 2^(j-1) phi (unless capped at jMax)
    j == g.jMax || r <= math.pow(2.0, j - 1) * g.phi + 1e-12
  }

  property("ring j cell side doubles with j") = forAll(Gen.chooseNum(0, 20)) { j =>
    val g = new ExpGrid(Array(0.0, 0.0), 1.0, 8, 24)
    math.abs(g.cellSide(j + 1) - 2 * g.cellSide(j)) < 1e-9 * g.cellSide(j + 1)
  }

  property("enumerated ring cells contain the cellOf key of ring-j points") =
    forAll(Gen.chooseNum(-40.0, 40.0), Gen.chooseNum(-40.0, 40.0)) { (x, y) =>
      val g = new ExpGrid(Array(0.0, 0.0), 0.5, 8, 24)
      val p = Array(x, y)
      val key = g.cellOf(0, p)
      key.j == g.jMax || g.cellsOfRing(0, key.j).contains(key)
    }

  property("condition (3) always holds for the center's own cell") = forAll(grid) {
    case (g, p) =>
      // the cell containing x_i itself trivially satisfies phi(x_i, cell) = 0
      val key = g.cellOf(0, g.center)
      val b = g.boxOf(key)
      SubSpace.condition3(g.center, Array(g.center, p), b)
  }

  private val coords: Gen[Array[Long]] =
    Gen.chooseNum(0, 4).flatMap(d => Gen.listOfN(d, Gen.chooseNum(-6L, 6L))).map(_.toArray)

  property("equal cell keys are equal and hash equally") =
    forAll(Gen.chooseNum(0, 30), Gen.chooseNum(0, 40), coords) { (c, j, xs) =>
      val a = new CellKey(c, j, xs)
      val b = new CellKey(c, j, xs.clone())
      a == b && a.hashCode == b.hashCode
    }

  property("cell keys differing in ring, center or a coordinate are unequal") =
    forAll(Gen.chooseNum(0, 30), Gen.chooseNum(0, 40), coords) { (c, j, xs) =>
      val a = new CellKey(c, j, xs)
      val moved = xs.indices.map(i => new CellKey(c, j, xs.updated(i, xs(i) + 1)))
      a != new CellKey(c, j + 1, xs) && a != new CellKey(c + 1, j, xs) && moved.forall(_ != a)
    }

  property("jMaxFor covers the ratio") = forAll(Gen.chooseNum(2.0, 1e7)) { ratio =>
    val j = ExpGrid.jMaxFor(ratio)
    math.pow(2.0, j - 1) >= ratio * 0.999
  }
}
