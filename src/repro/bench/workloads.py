"""The paper's 11 benchmarks (Table 7) in MiniLua and MiniJS.

The programs are the Computer Language Benchmarks Game kernels the paper
runs, written in the MiniLua/MiniJS subsets.  Inputs are scaled down
(``scale`` parameter; the FPGA runs 207 billion instructions, a pure-
Python simulator cannot) but the bytecode *mix* of each kernel — which is
what drives every figure — is preserved: the same loops, the same table/
array access patterns, the same float/int balance, the same builtin-call
density.
"""

from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    """One benchmark: sources are templates parameterised by ``scale``."""

    name: str
    description: str
    paper_input: str
    default_scale: int
    lua_template: str
    js_template: str

    def source(self, engine, scale=None):
        """The program text for ``engine`` (``"lua"`` or ``"js"``) at
        ``scale`` (the default scale when ``None``)."""
        template = {"lua": self.lua_template, "js": self.js_template}[engine]
        return template % {"n": scale or self.default_scale}

    def lua_source(self, scale=None):
        return self.source("lua", scale)

    def js_source(self, scale=None):
        return self.source("js", scale)


_ACKERMANN_LUA = """
local function ack(m, n)
  if m == 0 then return n + 1 end
  if n == 0 then return ack(m - 1, 1) end
  return ack(m - 1, ack(m, n - 1))
end
print(ack(3, %(n)d))
"""

_ACKERMANN_JS = """
function ack(m, n) {
  if (m == 0) return n + 1;
  if (n == 0) return ack(m - 1, 1);
  return ack(m - 1, ack(m, n - 1));
}
print(ack(3, %(n)d));
"""

_BINARY_TREES_LUA = """
local function make(depth)
  if depth == 0 then return {0} end
  local node = {0}
  node[2] = make(depth - 1)
  node[3] = make(depth - 1)
  return node
end
local function check(node)
  if #node == 1 then return 1 end
  return 1 + check(node[2]) + check(node[3])
end
local total = 0
for d = 1, %(n)d do
  local tree = make(d)
  total = total + check(tree)
end
print(total)
"""

_BINARY_TREES_JS = """
function make(depth) {
  if (depth == 0) return [0];
  var node = [0, 0, 0];
  node[1] = make(depth - 1);
  node[2] = make(depth - 1);
  return node;
}
function check(node) {
  if (node.length == 1) return 1;
  return 1 + check(node[1]) + check(node[2]);
}
var total = 0;
for (var d = 1; d <= %(n)d; d++) {
  var tree = make(d);
  total = total + check(tree);
}
print(total);
"""

_FANNKUCH_LUA = """
local function fannkuch(n)
  local p = {}
  local q = {}
  local s = {}
  for i = 1, n do p[i] = i q[i] = i s[i] = i end
  local sign = 1
  local maxflips = 0
  local sum = 0
  repeat
    local q1 = p[1]
    if q1 ~= 1 then
      for i = 2, n do q[i] = p[i] end
      local flips = 1
      repeat
        local qq = q[q1]
        if qq == 1 then
          sum = sum + sign * flips
          if flips > maxflips then maxflips = flips end
          break
        end
        q[q1] = q1
        if q1 >= 4 then
          local i = 2
          local j = q1 - 1
          repeat
            local t = q[i]
            q[i] = q[j]
            q[j] = t
            i = i + 1
            j = j - 1
          until i >= j
        end
        q1 = qq
        flips = flips + 1
      until false
    end
    if sign == 1 then
      local t = p[2]
      p[2] = p[1]
      p[1] = t
      sign = -1
    else
      local t = p[2]
      p[2] = p[3]
      p[3] = t
      sign = 1
      local i = 3
      local done = false
      while i <= n do
        local sx = s[i]
        if sx ~= 1 then
          s[i] = sx - 1
          break
        end
        if i == n then
          print(sum)
          print(maxflips)
          return maxflips
        end
        s[i] = i
        local t0 = p[1]
        for j = 1, i do p[j] = p[j + 1] end
        p[i + 1] = t0
        i = i + 1
      end
    end
  until false
end
fannkuch(%(n)d)
"""

_FANNKUCH_JS = """
function fannkuch(n) {
  // 1-based arrays (slot 0 unused): the flip identity below relies on
  // permutation values doubling as indices, like the Lua original.
  var p = [0];
  var q = [0];
  var s = [0];
  for (var i = 1; i <= n; i++) { p[i] = i; q[i] = i; s[i] = i; }
  var sign = 1;
  var maxflips = 0;
  var sum = 0;
  while (true) {
    var q1 = p[1];
    if (q1 != 1) {
      for (i = 2; i <= n; i++) q[i] = p[i];
      var flips = 1;
      while (true) {
        var qq = q[q1];
        if (qq == 1) {
          sum += sign * flips;
          if (flips > maxflips) maxflips = flips;
          break;
        }
        q[q1] = q1;
        if (q1 >= 4) {
          var lo = 2;
          var hi = q1 - 1;
          while (lo < hi) {
            var t = q[lo]; q[lo] = q[hi]; q[hi] = t;
            lo++; hi--;
          }
        }
        q1 = qq;
        flips++;
      }
    }
    if (sign == 1) {
      var t1 = p[2]; p[2] = p[1]; p[1] = t1;
      sign = -1;
    } else {
      var t2 = p[2]; p[2] = p[3]; p[3] = t2;
      sign = 1;
      for (i = 3; i <= n; i++) {
        var sx = s[i];
        if (sx != 1) { s[i] = sx - 1; break; }
        if (i == n) {
          print(sum);
          print(maxflips);
          return maxflips;
        }
        s[i] = i;
        var t0 = p[1];
        for (var j = 1; j <= i; j++) p[j] = p[j + 1];
        p[i + 1] = t0;
      }
    }
  }
}
fannkuch(%(n)d);
"""

_FIBO_LUA = """
local function fib(n)
  if n < 2 then return n end
  return fib(n - 1) + fib(n - 2)
end
print(fib(%(n)d))
"""

_FIBO_JS = """
function fib(n) {
  if (n < 2) return n;
  return fib(n - 1) + fib(n - 2);
}
print(fib(%(n)d));
"""

_KNUCLEOTIDE_LUA = """
local alpha = "ACGT"
local n = %(n)d
seed = 42
local s = ""
for i = 1, n do
  seed = (seed * 3877 + 29573) %% 139968
  local idx = seed // 34992 + 1
  s = s .. string.sub(alpha, idx, idx)
end
local counts = {}
for i = 1, n - 1 do
  local mer = string.sub(s, i, i + 1)
  counts[mer] = (counts[mer] or 0) + 1
end
for a = 1, 4 do
  for b = 1, 4 do
    local mer = string.sub(alpha, a, a) .. string.sub(alpha, b, b)
    print(mer .. " " .. (counts[mer] or 0))
  end
end
"""

_KNUCLEOTIDE_JS = """
var alpha = "ACGT";
var n = %(n)d;
var seed = 42;
var s = "";
for (var i = 0; i < n; i++) {
  seed = (seed * 3877 + 29573) %% 139968;
  var idx = Math.floor(seed / 34992);
  s = s + alpha[idx];
}
var counts = {};
for (i = 0; i < n - 1; i++) {
  var mer = substring(s, i, i + 2);
  var old = counts[mer];
  if (old == undefined) old = 0;
  counts[mer] = old + 1;
}
for (var a = 0; a < 4; a++) {
  for (var b = 0; b < 4; b++) {
    var key = alpha[a] + alpha[b];
    var c = counts[key];
    if (c == undefined) c = 0;
    print(key + " " + c);
  }
}
"""

_MANDELBROT_LUA = """
local size = %(n)d
local sum = 0
local byte_acc = 0
local bit_num = 0
for y = 0, size - 1 do
  local ci = 2.0 * y / size - 1.0
  for x = 0, size - 1 do
    local cr = 2.0 * x / size - 1.5
    local zr = 0.0
    local zi = 0.0
    local i = 0
    local inside = 1
    while i < 50 do
      local tr = zr * zr - zi * zi + cr
      zi = 2.0 * zr * zi + ci
      zr = tr
      if zr * zr + zi * zi > 4.0 then
        inside = 0
        break
      end
      i = i + 1
    end
    byte_acc = byte_acc * 2 + inside
    bit_num = bit_num + 1
    if bit_num == 8 then
      io.write(byte_acc)
      io.write(" ")
      sum = sum + byte_acc
      byte_acc = 0
      bit_num = 0
    end
  end
  while bit_num > 0 and bit_num < 8 do
    byte_acc = byte_acc * 2
    bit_num = bit_num + 1
  end
  if bit_num == 8 then
    io.write(byte_acc)
    io.write(" ")
    sum = sum + byte_acc
    byte_acc = 0
    bit_num = 0
  end
end
print("")
print(sum)
"""

_MANDELBROT_JS = """
var size = %(n)d;
var sum = 0;
var byte_acc = 0;
var bit_num = 0;
for (var y = 0; y < size; y++) {
  var ci = 2.0 * y / size - 1.0;
  for (var x = 0; x < size; x++) {
    var cr = 2.0 * x / size - 1.5;
    var zr = 0.0;
    var zi = 0.0;
    var inside = 1;
    for (var i = 0; i < 50; i++) {
      var tr = zr * zr - zi * zi + cr;
      zi = 2.0 * zr * zi + ci;
      zr = tr;
      if (zr * zr + zi * zi > 4.0) { inside = 0; break; }
    }
    byte_acc = byte_acc * 2 + inside;
    bit_num = bit_num + 1;
    if (bit_num == 8) {
      write(byte_acc); write(" ");
      sum = sum + byte_acc;
      byte_acc = 0;
      bit_num = 0;
    }
  }
  while (bit_num > 0 && bit_num < 8) {
    byte_acc = byte_acc * 2;
    bit_num = bit_num + 1;
  }
  if (bit_num == 8) {
    write(byte_acc); write(" ");
    sum = sum + byte_acc;
    byte_acc = 0;
    bit_num = 0;
  }
}
print("");
print(sum);
"""

_NBODY_LUA = """
PI = 3.141592653589793
SOLAR_MASS = 4.0 * PI * PI
DAYS_PER_YEAR = 365.24
local function body(x, y, z, vx, vy, vz, mass)
  local b = {}
  b.x = x b.y = y b.z = z
  b.vx = vx b.vy = vy b.vz = vz
  b.mass = mass
  return b
end
bodies = {}
bodies[1] = body(0.0, 0.0, 0.0, 0.0, 0.0, 0.0, SOLAR_MASS)
bodies[2] = body(4.84143144246472090, -1.16032004402742839,
  -0.103622044471123109, 0.00166007664274403694 * DAYS_PER_YEAR,
  0.00769901118419740425 * DAYS_PER_YEAR,
  -0.0000690460016972063023 * DAYS_PER_YEAR,
  0.000954791938424326609 * SOLAR_MASS)
bodies[3] = body(8.34336671824457987, 4.12479856412430479,
  -0.403523417114321381, -0.00276742510726862411 * DAYS_PER_YEAR,
  0.00499852801234917238 * DAYS_PER_YEAR,
  0.0000230417297573763929 * DAYS_PER_YEAR,
  0.000285885980666130812 * SOLAR_MASS)
bodies[4] = body(12.8943695621391310, -15.1111514016986312,
  -0.223307578892655734, 0.00296460137564761618 * DAYS_PER_YEAR,
  0.00237847173959480950 * DAYS_PER_YEAR,
  -0.0000296589568540237556 * DAYS_PER_YEAR,
  0.0000436624404335156298 * SOLAR_MASS)
bodies[5] = body(15.3796971148509165, -25.9193146099879641,
  0.179258772950371181, 0.00268067772490389322 * DAYS_PER_YEAR,
  0.00162824170038242295 * DAYS_PER_YEAR,
  -0.0000951592254519715870 * DAYS_PER_YEAR,
  0.0000515138902046611451 * SOLAR_MASS)
nbody = 5
-- offset momentum
local px = 0.0
local py = 0.0
local pz = 0.0
for i = 1, nbody do
  local b = bodies[i]
  px = px + b.vx * b.mass
  py = py + b.vy * b.mass
  pz = pz + b.vz * b.mass
end
bodies[1].vx = -px / SOLAR_MASS
bodies[1].vy = -py / SOLAR_MASS
bodies[1].vz = -pz / SOLAR_MASS
local function energy()
  local e = 0.0
  for i = 1, nbody do
    local bi = bodies[i]
    e = e + 0.5 * bi.mass *
      (bi.vx * bi.vx + bi.vy * bi.vy + bi.vz * bi.vz)
    for j = i + 1, nbody do
      local bj = bodies[j]
      local dx = bi.x - bj.x
      local dy = bi.y - bj.y
      local dz = bi.z - bj.z
      e = e - bi.mass * bj.mass /
        math.sqrt(dx * dx + dy * dy + dz * dz)
    end
  end
  return e
end
local function advance(dt)
  for i = 1, nbody do
    local bi = bodies[i]
    for j = i + 1, nbody do
      local bj = bodies[j]
      local dx = bi.x - bj.x
      local dy = bi.y - bj.y
      local dz = bi.z - bj.z
      local d2 = dx * dx + dy * dy + dz * dz
      local mag = dt / (d2 * math.sqrt(d2))
      bi.vx = bi.vx - dx * bj.mass * mag
      bi.vy = bi.vy - dy * bj.mass * mag
      bi.vz = bi.vz - dz * bj.mass * mag
      bj.vx = bj.vx + dx * bi.mass * mag
      bj.vy = bj.vy + dy * bi.mass * mag
      bj.vz = bj.vz + dz * bi.mass * mag
    end
  end
  for i = 1, nbody do
    local b = bodies[i]
    b.x = b.x + dt * b.vx
    b.y = b.y + dt * b.vy
    b.z = b.z + dt * b.vz
  end
end
print(energy())
for step = 1, %(n)d do advance(0.01) end
print(energy())
"""

_NBODY_JS = """
var PI = 3.141592653589793;
var SOLAR_MASS = 4.0 * PI * PI;
var DAYS_PER_YEAR = 365.24;
function body(x, y, z, vx, vy, vz, mass) {
  return {x: x, y: y, z: z, vx: vx, vy: vy, vz: vz, mass: mass};
}
var bodies = [
  body(0.0, 0.0, 0.0, 0.0, 0.0, 0.0, SOLAR_MASS),
  body(4.84143144246472090, -1.16032004402742839,
    -0.103622044471123109, 0.00166007664274403694 * DAYS_PER_YEAR,
    0.00769901118419740425 * DAYS_PER_YEAR,
    -0.0000690460016972063023 * DAYS_PER_YEAR,
    0.000954791938424326609 * SOLAR_MASS),
  body(8.34336671824457987, 4.12479856412430479,
    -0.403523417114321381, -0.00276742510726862411 * DAYS_PER_YEAR,
    0.00499852801234917238 * DAYS_PER_YEAR,
    0.0000230417297573763929 * DAYS_PER_YEAR,
    0.000285885980666130812 * SOLAR_MASS),
  body(12.8943695621391310, -15.1111514016986312,
    -0.223307578892655734, 0.00296460137564761618 * DAYS_PER_YEAR,
    0.00237847173959480950 * DAYS_PER_YEAR,
    -0.0000296589568540237556 * DAYS_PER_YEAR,
    0.0000436624404335156298 * SOLAR_MASS),
  body(15.3796971148509165, -25.9193146099879641,
    0.179258772950371181, 0.00268067772490389322 * DAYS_PER_YEAR,
    0.00162824170038242295 * DAYS_PER_YEAR,
    -0.0000951592254519715870 * DAYS_PER_YEAR,
    0.0000515138902046611451 * SOLAR_MASS)];
var nbody = 5;
var px = 0.0; var py = 0.0; var pz = 0.0;
for (var i = 0; i < nbody; i++) {
  var b = bodies[i];
  px += b.vx * b.mass; py += b.vy * b.mass; pz += b.vz * b.mass;
}
bodies[0].vx = -px / SOLAR_MASS;
bodies[0].vy = -py / SOLAR_MASS;
bodies[0].vz = -pz / SOLAR_MASS;
function energy() {
  var e = 0.0;
  for (var i = 0; i < nbody; i++) {
    var bi = bodies[i];
    e += 0.5 * bi.mass * (bi.vx * bi.vx + bi.vy * bi.vy + bi.vz * bi.vz);
    for (var j = i + 1; j < nbody; j++) {
      var bj = bodies[j];
      var dx = bi.x - bj.x;
      var dy = bi.y - bj.y;
      var dz = bi.z - bj.z;
      e -= bi.mass * bj.mass / Math.sqrt(dx * dx + dy * dy + dz * dz);
    }
  }
  return e;
}
function advance(dt) {
  for (var i = 0; i < nbody; i++) {
    var bi = bodies[i];
    for (var j = i + 1; j < nbody; j++) {
      var bj = bodies[j];
      var dx = bi.x - bj.x;
      var dy = bi.y - bj.y;
      var dz = bi.z - bj.z;
      var d2 = dx * dx + dy * dy + dz * dz;
      var mag = dt / (d2 * Math.sqrt(d2));
      bi.vx -= dx * bj.mass * mag;
      bi.vy -= dy * bj.mass * mag;
      bi.vz -= dz * bj.mass * mag;
      bj.vx += dx * bi.mass * mag;
      bj.vy += dy * bi.mass * mag;
      bj.vz += dz * bi.mass * mag;
    }
  }
  for (i = 0; i < nbody; i++) {
    var b = bodies[i];
    b.x += dt * b.vx;
    b.y += dt * b.vy;
    b.z += dt * b.vz;
  }
}
print(energy());
for (var step = 0; step < %(n)d; step++) advance(0.01);
print(energy());
"""

_NSIEVE_LUA = """
local n = %(n)d
local flags = {}
flags[1] = false
for i = 2, n do flags[i] = true end
local count = 0
for i = 2, n do
  if flags[i] then
    count = count + 1
    local k = i + i
    while k <= n do
      flags[k] = false
      k = k + i
    end
  end
end
print(count)
"""

_NSIEVE_JS = """
var n = %(n)d;
var flags = [];
for (var i = 0; i <= n; i++) flags[i] = true;
var count = 0;
for (i = 2; i <= n; i++) {
  if (flags[i]) {
    count = count + 1;
    for (var k = i + i; k <= n; k += i) flags[k] = false;
  }
}
print(count);
"""

_PIDIGITS_LUA = """
local ndigits = %(n)d
local len = ndigits * 10 // 3 + 1
local a = {}
for i = 1, len do a[i] = 2 end
local nines = 0
local predigit = 0
local first = true
for j = 1, ndigits do
  local q = 0
  for i = len, 1, -1 do
    local x = 10 * a[i] + q * i
    a[i] = x %% (2 * i - 1)
    q = x // (2 * i - 1)
  end
  a[1] = q %% 10
  q = q // 10
  if q == 9 then
    nines = nines + 1
  elseif q == 10 then
    io.write(predigit + 1)
    for k = 1, nines do io.write(0) end
    predigit = 0
    nines = 0
  else
    if first then
      first = false
    else
      io.write(predigit)
    end
    predigit = q
    for k = 1, nines do io.write(9) end
    nines = 0
  end
end
io.write(predigit)
print("")
"""

_PIDIGITS_JS = """
var ndigits = %(n)d;
var len = Math.floor(ndigits * 10 / 3) + 1;
var a = [];
for (var i = 0; i < len; i++) a[i] = 2;
var nines = 0;
var predigit = 0;
var first = true;
for (var j = 0; j < ndigits; j++) {
  var q = 0;
  for (i = len - 1; i >= 0; i--) {
    var x = 10 * a[i] + q * (i + 1);
    a[i] = x %% (2 * i + 1);
    q = Math.floor(x / (2 * i + 1));
  }
  a[0] = q %% 10;
  q = Math.floor(q / 10);
  if (q == 9) {
    nines = nines + 1;
  } else if (q == 10) {
    write(predigit + 1);
    for (var k = 0; k < nines; k++) write(0);
    predigit = 0;
    nines = 0;
  } else {
    if (first) { first = false; } else { write(predigit); }
    predigit = q;
    for (k = 0; k < nines; k++) write(9);
    nines = 0;
  }
}
write(predigit);
print("");
"""

_RANDOM_LUA = """
IM = 139968
IA = 3877
IC = 29573
seed = 42
local function gen_random(max)
  seed = (seed * IA + IC) %% IM
  return max * seed / IM
end
local r = 0.0
for i = 1, %(n)d do
  r = gen_random(100.0)
end
print(r)
"""

_RANDOM_JS = """
var IM = 139968;
var IA = 3877;
var IC = 29573;
var seed = 42;
function gen_random(max) {
  seed = (seed * IA + IC) %% IM;
  return max * seed / IM;
}
var r = 0.0;
for (var i = 0; i < %(n)d; i++) {
  r = gen_random(100.0);
}
print(r);
"""

_SPECTRAL_LUA = """
local function A(i, j)
  return 1.0 / ((i + j) * (i + j + 1) / 2 + i + 1)
end
local function Av(x, y, n)
  for i = 0, n - 1 do
    local a = 0.0
    for j = 0, n - 1 do
      a = a + x[j + 1] * A(i, j)
    end
    y[i + 1] = a
  end
end
local function Atv(x, y, n)
  for i = 0, n - 1 do
    local a = 0.0
    for j = 0, n - 1 do
      a = a + x[j + 1] * A(j, i)
    end
    y[i + 1] = a
  end
end
local n = %(n)d
local u = {}
local v = {}
local t = {}
for i = 1, n do
  u[i] = 1.0
  v[i] = 0.0
  t[i] = 0.0
end
for i = 1, 10 do
  Av(u, t, n)
  Atv(t, v, n)
  Av(v, t, n)
  Atv(t, u, n)
end
local vBv = 0.0
local vv = 0.0
for i = 1, n do
  vBv = vBv + u[i] * v[i]
  vv = vv + v[i] * v[i]
end
print(math.sqrt(vBv / vv))
"""

_SPECTRAL_JS = """
function A(i, j) {
  return 1.0 / ((i + j) * (i + j + 1) / 2 + i + 1);
}
function Av(x, y, n) {
  for (var i = 0; i < n; i++) {
    var a = 0.0;
    for (var j = 0; j < n; j++) a += x[j] * A(i, j);
    y[i] = a;
  }
}
function Atv(x, y, n) {
  for (var i = 0; i < n; i++) {
    var a = 0.0;
    for (var j = 0; j < n; j++) a += x[j] * A(j, i);
    y[i] = a;
  }
}
var n = %(n)d;
var u = [];
var v = [];
var t = [];
for (var i = 0; i < n; i++) { u[i] = 1.0; v[i] = 0.0; t[i] = 0.0; }
for (i = 0; i < 10; i++) {
  Av(u, t, n);
  Atv(t, v, n);
  Av(v, t, n);
  Atv(t, u, n);
}
var vBv = 0.0;
var vv = 0.0;
for (i = 0; i < n; i++) {
  vBv += u[i] * v[i];
  vv += v[i] * v[i];
}
print(Math.sqrt(vBv / vv));
"""


WORKLOADS = {
    "ackermann": Workload(
        "ackermann", "Ackermann function benchmark", "7", 3,
        _ACKERMANN_LUA, _ACKERMANN_JS),
    "binary-trees": Workload(
        "binary-trees", "Allocate and walk many binary trees", "12", 7,
        _BINARY_TREES_LUA, _BINARY_TREES_JS),
    "fannkuch-redux": Workload(
        "fannkuch-redux", "Indexed access to tiny integer sequences", "9",
        5, _FANNKUCH_LUA, _FANNKUCH_JS),
    "fibo": Workload(
        "fibo", "Recursive Fibonacci", "32", 16, _FIBO_LUA, _FIBO_JS),
    "k-nucleotide": Workload(
        "k-nucleotide", "Hash-table update keyed by k-nucleotide strings",
        "250,000", 150, _KNUCLEOTIDE_LUA, _KNUCLEOTIDE_JS),
    "mandelbrot": Workload(
        "mandelbrot", "Mandelbrot set bitmap", "250", 10,
        _MANDELBROT_LUA, _MANDELBROT_JS),
    "n-body": Workload(
        "n-body", "Double-precision N-body simulation", "500,000", 25,
        _NBODY_LUA, _NBODY_JS),
    "n-sieve": Workload(
        "n-sieve", "Sieve of Eratosthenes prime count", "7", 1000,
        _NSIEVE_LUA, _NSIEVE_JS),
    "pidigits": Workload(
        "pidigits", "Streaming spigot pi digits", "500", 15,
        _PIDIGITS_LUA, _PIDIGITS_JS),
    "random": Workload(
        "random", "Linear-congruential random numbers", "300,000", 1500,
        _RANDOM_LUA, _RANDOM_JS),
    "spectral-norm": Workload(
        "spectral-norm", "Matrix eigenvalue by the power method", "500", 6,
        _SPECTRAL_LUA, _SPECTRAL_JS),
}

BENCHMARK_ORDER = tuple(sorted(WORKLOADS))


def workload(name):
    """Look up a workload by name."""
    try:
        return WORKLOADS[name]
    except KeyError:
        raise KeyError("unknown benchmark %r (have: %s)"
                       % (name, ", ".join(BENCHMARK_ORDER))) from None
