package repro.core

import repro.cluster.Weighted.Pt

/** Axis-parallel box over a d_u-dimensional subspace. */
final case class Box(lo: Array[Double], hi: Array[Double]) {
  def dim: Int = lo.length
  def contains(p: Pt): Boolean = {
    var i = 0
    while (i < dim) { if (p(i) < lo(i) || p(i) >= hi(i)) return false; i += 1 }
    true
  }
  def diam: Double = {
    var s = 0.0; var i = 0
    while (i < dim) { val d = hi(i) - lo(i); s += d * d; i += 1 }
    math.sqrt(s)
  }
  def intersects(o: Box): Boolean = {
    var i = 0
    while (i < dim) { if (hi(i) <= o.lo(i) || o.hi(i) <= lo(i)) return false; i += 1 }
    true
  }
  /** Does this box fully contain `o`? */
  def covers(o: Box): Boolean = {
    var i = 0
    while (i < dim) { if (o.lo(i) < lo(i) || o.hi(i) > hi(i)) return false; i += 1 }
    true
  }
}

object Geometry {
  /** Euclidean distance from a point to a box (0 if inside) — phi(x, □). */
  def pointBoxDist(p: Pt, b: Box): Double = {
    var s = 0.0; var i = 0
    while (i < b.dim) {
      val d = if (p(i) < b.lo(i)) b.lo(i) - p(i) else if (p(i) > b.hi(i)) p(i) - b.hi(i) else 0.0
      s += d * d
      i += 1
    }
    math.sqrt(s)
  }

  /** min over x in X of phi(x, □) — phi(X, □). */
  def setBoxDist(xs: Array[Pt], b: Box): Double = {
    var best = Double.PositiveInfinity; var i = 0
    while (i < xs.length) { val d = pointBoxDist(xs(i), b); if (d < best) best = d; i += 1 }
    best
  }
}

/** Identifier of one cell of the exponential grid of center `center`:
  * ring `j`, integer coordinates within the ring-j grid, kept as a primitive
  * `Array[Long]`. Used by the grid walks and as batched Algorithm 2's hash
  * key, so it compares by value and mixes its 64-bit hash: plain
  * `Arrays.hashCode` of small neighbouring coordinates collides so often
  * that hash bins turn into trees.
  */
final class CellKey(val center: Int, val j: Int, val coords: Array[Long]) {
  override def equals(o: Any): Boolean = o match {
    case k: CellKey => center == k.center && j == k.j && java.util.Arrays.equals(coords, k.coords)
    case _          => false
  }
  override def hashCode(): Int = {
    var h = CellKey.mix(center.toLong * 0x9E3779B97F4A7C15L + j)
    var i = 0
    while (i < coords.length) { h = CellKey.mix(h ^ coords(i)); i += 1 }
    (h ^ (h >>> 32)).toInt
  }
  override def toString: String = s"CellKey($center, $j, ${coords.mkString("[", ", ", "]")})"
}

object CellKey {
  /** The finaliser of SplitMix64 (Steele, Lea, Flood 2014). */
  private def mix(x: Long): Long = {
    var z = x + 0x9E3779B97F4A7C15L
    z = (z ^ (z >>> 30)) * 0xBF58476D1CE4E5B9L
    z = (z ^ (z >>> 27)) * 0x94D049BB133111EBL
    z ^ (z >>> 31)
  }
}

/** The exponential grid of Section 3.1 around one center x_i.
  *
  * Q_j is the axis-parallel cube of side 2^j * phi centered at x_i
  * (j = 0..jMax); ring V_j = Q_j \ Q_{j-1} (V_0 = Q_0) is tiled by a uniform
  * grid of side s_j = 2^j * phi / cellsPerSide. The paper's side is
  * eps' 2^j phi / (10 alpha d_u), i.e. cellsPerSide = 10 alpha d_u / eps' —
  * astronomically fine; `cellsPerSide` is the practical knob (DESIGN.md §2.2).
  */
final class ExpGrid(val center: Pt, val phi: Double, val cellsPerSide: Int, val jMax: Int) {
  require(phi > 0, "phi must be positive")
  require(cellsPerSide >= 2 && cellsPerSide % 2 == 0, "cellsPerSide must be even and >= 2")
  val dim: Int = center.length

  private val cellSides = Array.tabulate(jMax + 1)(j => math.pow(2.0, j) * phi / cellsPerSide)
  /** s_j, for rings j = 0..jMax. */
  def cellSide(j: Int): Double = cellSides(j)

  /** Ring index of a point: smallest j with ||t - x||_inf <= 2^(j-1) phi
    * (capped at jMax; points beyond Q_jMax land in ring jMax).
    */
  def ringOf(p: Pt): Int = {
    var r = 0.0; var i = 0
    while (i < dim) { val d = math.abs(p(i) - center(i)); if (d > r) r = d; i += 1 }
    if (r <= phi / 2) 0
    else math.min(jMax, math.ceil(math.log(2 * r / phi) / ExpGrid.Ln2).toInt)
  }

  /** The cell of point p: ring + integer grid coordinates at that ring's
    * resolution. Every point maps to exactly one cell of this grid.
    */
  def cellOf(centerIdx: Int, p: Pt): CellKey = {
    val j = ringOf(p)
    val s = cellSide(j)
    val coords = new Array[Long](dim)
    var i = 0
    while (i < dim) { coords(i) = math.floor((p(i) - center(i)) / s).toLong; i += 1 }
    new CellKey(centerIdx, j, coords)
  }

  def boxOf(key: CellKey): Box = {
    val s = cellSide(key.j)
    val lo = Array.tabulate(dim)(i => center(i) + key.coords(i) * s)
    val hi = Array.tabulate(dim)(i => center(i) + (key.coords(i) + 1) * s)
    Box(lo, hi)
  }

  /** Enumerate all cells of ring j (for the deterministic Algorithm 1):
    * coordinates covering Q_j minus, for j >= 1, those fully inside Q_{j-1}.
    * The coordinate range is closed on both sides so boundary points (whose
    * ring test is inclusive) are covered; the resulting overlap with ring
    * j+1's area is harmless because processed cells are excluded via G.
    */
  def cellsOfRing(centerIdx: Int, j: Int): Iterator[CellKey] = {
    val half = cellsPerSide / 2 // cells per half-side of Q_j
    val range = (-half.toLong) to half.toLong
    def inHole(coords: Array[Long]): Boolean =
      // Q_{j-1} has half the side of Q_j: at ring-j resolution its half-side
      // spans cellsPerSide/4 cells; only exact when cellsPerSide % 4 == 0,
      // otherwise we keep the cell (over-covering is safe, it only means a
      // cell may be visited at two resolutions; counts exclude overlap).
      j >= 1 && cellsPerSide % 4 == 0 && {
        val h = cellsPerSide / 4
        coords.forall(c => c >= -h && c < h)
      }
    def rec(i: Int, acc: Array[Long]): Iterator[Array[Long]] =
      if (i == dim) Iterator.single(acc)
      else range.iterator.flatMap(c => rec(i + 1, acc :+ c))
    rec(0, Array.emptyLongArray).filterNot(inHole).map(new CellKey(centerIdx, j, _))
  }
}

object ExpGrid {
  private val Ln2 = math.log(2.0)

  /** jMax such that Q_jMax covers every tuple at max distance
    * `ratio * phi` from its center: 2^(jMax-1) >= ratio. For k-median the
    * ratio is alpha*n (phi = r/(alpha n), per-tuple distance <= r); for
    * k-means it is sqrt(alpha*n) (phi = sqrt(r/(alpha n)), squared distance
    * <= r). The paper uses the looser 2 log(alpha n) everywhere.
    */
  def jMaxFor(ratio: Double): Int =
    math.max(1, math.ceil(math.log(2 * math.max(ratio, 2.0)) / math.log(2.0)).toInt)
}
