int cells[32];

/* Every activation speculates the load of *p across the store through
   q in its loop (ld.a before the loop, ld.c inside it), then recurses.
   Every fifth level makes p and q alias, so its checks must reload;
   each returning activation takes its own ALAT entries with it. */
int walk(int n, int base) {
  int* p;
  int* q;
  int k;
  int s;
  if (n <= 0) return cells[base % 32];
  p = &cells[(base + n) % 32];
  q = &cells[(base + n + 1) % 32];
  if (n % 5 == 0) q = p;
  s = 0;
  k = 0;
  while (k < 6) {
    s = s + *p;
    *q = k + n;
    k = k + 1;
  }
  return s + walk(n - 1, base + 3);
}

int main() {
  int i;
  int s;
  i = 0;
  while (i < 32) { cells[i] = i * 7 % 11; i = i + 1; }
  s = 0;
  i = 0;
  while (i < 40) {
    s = s + walk(24, i);
    i = i + 1;
  }
  print_int(s);
  print_int(cells[5]);
  return 0;
}
