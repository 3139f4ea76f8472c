int main() {
  float a; float x; float y;
  seed(7);
  a = (float)(rnd(5) + 3);
  x = a * 0.1;
  y = a * 0.10000000000001;
  print_int((int)((y - x) * 1000000000000000.0));
  return 0;
}
